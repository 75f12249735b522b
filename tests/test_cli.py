import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frechet.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, SCHEMA_VERSION, _rewrite,
                         build_parser, main)

import cold_runs
from conftest import fresh_env


def write_config(tmp_path, name, payload):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# Minimal valid configs of the experiment commands.
SLLN = {"space": {"type": "euclidean", "dim": 1}, "p": 2.0,
        "sampler": {"kind": "iid", "distribution": "normal", "params": [0.0, 1.0], "seed": 1},
        "n_grid": [20], "solver": "subgradient", "target_points": [[0.0]]}
ERGODIC = {"space": {"type": "euclidean", "dim": 1}, "p": 2.0,
           "sampler": {"kind": "markov-chain", "states": [0.0, 3.0],
                       "kernel": [[0.6, 0.4], [0.4, 0.6]], "seed": 3},
           "n_grid": [20], "solver": "subgradient"}
LDP = {"space": {"type": "euclidean", "dim": 1}, "p": 2.0,
       "measure": {"support": [[0.0], [1.0]], "weights": [0.7, 0.3]},
       "n_grid": [20], "event_points": [[1.0]], "simplex_step": 0.25}
MEAN = {"space": {"type": "euclidean", "dim": 1}, "p": 2.0,
        "measure": {"support": [[0.0], [1.0]]}, "grid_step": 0.1}
GAMMA = {"space": {"type": "euclidean", "dim": 1}, "p": 2.0, "grid_step": 0.1,
         "measures": [{"support": [[0.0], [1.5]]}], "limit": {"support": [[0.0], [1.0]]}}
DIAG = {"space": {"type": "spider", "legs": 3}, "trials": 1}
# The metric axioms and functional identities on the Wasserstein-1D space,
# where each single pair used to build its own one-row table.
DIAG_W1D = {"space": {"type": "wasserstein1d", "q": 2.0}, "trials": 1000}
_CONFIGS = {"mean": MEAN, "slln": SLLN, "ergodic": ERGODIC, "ldp": LDP, "gamma": GAMMA,
            "diag": DIAG}
# (command, key, value): each value must be refused by name.
_BAD_KEYS = [
    ("slln", "p", math.nan), ("slln", "p", math.inf), ("slln", "p", 0.5), ("slln", "p", "2"),
    ("slln", "p", None), ("slln", "epsilon", math.nan), ("slln", "epsilon", -1.0),
    ("slln", "step_tolerance", math.nan), ("slln", "value_tolerance", math.nan),
    ("slln", "value_tolerance", math.inf), ("ergodic", "p", math.nan),
    ("ergodic", "step_tolerance", 0.0), ("ldp", "p", math.nan), ("mean", "p", math.inf),
    ("mean", "epsilon", math.nan), ("gamma", "p", math.nan), ("diag", "p", math.inf),
    ("slln", "replications", 2.5), ("slln", "replications", "3"),
    ("slln", "replications", True), ("slln", "n_grid", [20.7]), ("slln", "n_grid", 20),
    ("slln", "max_iterations", 2.5), ("slln", "seed", 1.5), ("ergodic", "n_grid", [True]),
    ("ldp", "replications", 2.5), ("ldp", "n_grid", [5.5]), ("ldp", "seed", 1.5),
    ("gamma", "seed", 1.5), ("diag", "trials", 2.5), ("diag", "seed", "0"),
]


DIST_LQ = {"space": {"type": "lq", "truncation": 2, "q": 3.0}, "x": [0.0, 0.0], "y": [1.0, 1.0]}
DIST_EUCLID = {"space": {"type": "euclidean", "dim": 2}, "x": [0.0, 0.0], "y": [3.0, 4.0]}
DIST_SPIDER = {"space": {"type": "spider", "legs": 3}, "x": [1, 0.5], "y": [0, 1.0]}
# A Wasserstein-1D grid mean, the shape of the benchmark's: members of 3
# weighted atoms on [-1, 1], step 0.1 and pad 0.55.
MEAN_W1D = {"space": {"type": "wasserstein1d", "q": 2.0}, "p": 2.0, "scheme": "grid",
            "grid_step": 0.1, "grid_pad": 0.55, "measure": {"support": [
                {"atoms": [-1.0, 0.12, 0.5], "weights": [0.3, 0.45, 0.25]},
                {"atoms": [-0.4, 0.3, 1.0], "weights": [0.2, 0.5, 0.3]},
                {"atoms": [-0.75, -0.1, 0.8], "weights": [0.35, 0.3, 0.35]},
                {"atoms": [-0.2, 0.05, 0.6], "weights": [0.4, 0.4, 0.2]}]}}
# The same grid over members of 2 to 5 atoms, weights for two of them, and
# two atoms 5e-13 apart that merge into one.
MEAN_W1D_RAGGED = {**MEAN_W1D, "measure": {"support": [
    {"atoms": [-1.0, 0.5]},
    {"atoms": [-0.4, 0.3, 1.0], "weights": [0.2, 0.5, 0.3]},
    {"atoms": [-0.75, -0.1, 0.2, 0.8]},
    {"atoms": [-0.2, 0.05, 0.05 + 5e-13, 0.4, 0.6], "weights": [0.2, 0.2, 0.2, 0.2, 0.2]}]}}
# A 2x2 Bures-Wasserstein grid mean, the shape of the benchmark's: two of
# 8 members pin the entry box (a, c in [0.5, 2], b in [-0.4, 0.4]); step
# 0.25 and pad 0.3 give 631 PSD candidates.
MEAN_BW = {"space": {"type": "bures-wasserstein", "dim": 2}, "p": 2.0, "scheme": "grid",
           "grid_step": 0.25, "grid_pad": 0.3, "measure": {"support": [
               [0.5, -0.4, -0.4, 0.5], [2.0, 0.4, 0.4, 2.0], [1.2, 0.3, 0.3, 0.9],
               [0.7, -0.2, -0.2, 1.6], [1.8, 0.1, 0.1, 0.6], [1.0, -0.35, -0.35, 1.3],
               [0.9, 0.25, 0.25, 1.9], [1.5, -0.05, -0.05, 1.1]]}}
# The paper's heavy-tail regime on the grid: Pareto alpha = 1.5 has no
# variance, p = 2, and at n = 1e5 the hull spans about 6e5 grid steps.
SLLN_HEAVY_TAIL = {"space": {"type": "euclidean", "dim": 1}, "p": 2.0,
                   "sampler": {"kind": "iid", "distribution": "pareto", "params": [1.5, 1.0],
                               "seed": 5},
                   "n_grid": [1000, 10000, 100000], "solver": "grid", "grid_step": 0.01,
                   "grid_pad": 1.0, "target_points": [[3.0]], "threshold": 0.5}
MEAN_SPIDER = {"space": {"type": "spider", "legs": 3}, "p": 2.0, "grid_step": 0.1,
               "measure": {"support": [[2, 0.5], [0, 1.0]]}}
# A support-scheme mean over 200 distinct atoms of the plane, more than the
# 128 candidates up to which its mesh used to be estimated.
MEAN_SUPPORT_200 = {"space": {"type": "euclidean", "dim": 2}, "p": 2.0, "scheme": "support",
                    "measure": {"support": [[k / 8.0, (k * 37 % 101) / 16.0]
                                            for k in range(200)]}}
FINITE = {**SLLN, "sampler": {"kind": "iid", "distribution": "finite", "atoms": [0.0, 1.0],
                              "probs": [0.5, 0.5], "seed": 1}}
# (command, config, key path, value, key): entries below the top level of a
# config, and eps_sequence, each refused by the name of ``key``. Read with
# int(), float() or tuple(), each of these ran (2.5 as 2, "3" as 3.0, an
# infinite level as any other), ended in a traceback, or was refused under
# another key's name.
_BAD_ENTRIES = [
    ("slln", SLLN, ("sampler", "seed"), 2.5, "seed"),
    ("slln", SLLN, ("sampler", "seed"), "1", "seed"),
    ("slln", SLLN, ("sampler", "params"), ["0", "1"], "params"),
    ("slln", SLLN, ("sampler", "params"), [0.0, math.inf], "params"),
    ("slln", SLLN, ("space", "dim"), 1.7, "dim"),
    ("slln", FINITE, ("sampler", "atoms"), ["0", "1"], "atoms"),
    ("slln", FINITE, ("sampler", "probs"), ["0.5", "0.5"], "probs"),
    ("ergodic", ERGODIC, ("sampler", "initial_state"), 1.7, "initial_state"),
    ("ergodic", ERGODIC, ("sampler", "kernel"), [["0.6", "0.4"], ["0.4", "0.6"]], "kernel"),
    ("ergodic", ERGODIC, ("sampler", "kernel"), [0.6, 0.4], "kernel"),
    ("ergodic", ERGODIC, ("sampler", "states"), ["0", "3"], "states"),
    ("mean", MEAN, ("measure", "weights"), ["0.5", "0.5"], "weights"),
    ("dist", DIST_LQ, ("space", "q"), "3", "q"),
    ("dist", DIST_LQ, ("space", "truncation"), 2.0, "truncation"),
    ("diag", DIAG, ("space", "legs"), 3.5, "legs"),
    ("gamma", GAMMA, ("eps_sequence",), [math.inf], "eps_sequence"),
    ("gamma", GAMMA, ("eps_sequence",), [math.nan], "eps_sequence"),
    ("gamma", GAMMA, ("eps_sequence",), [-0.5], "eps_sequence"),
    ("dist", DIST_SPIDER, ("x", 0), 1.7, "leg"),
    ("dist", DIST_SPIDER, ("x", 0), 3, "leg"),
    ("mean", MEAN_SPIDER, ("measure", "support", 0, 0), 2.9, "leg"),
    ("mean", MEAN, ("measure", "support", 1), ["1"], "support"),
    ("mean", MEAN_W1D, ("measure", "support", 0, "atoms"), [math.nan, 0.12, 0.5], "atoms"),
    ("mean", MEAN_W1D, ("measure", "support", 0, "atoms"), [math.inf, 0.12, 0.5], "atoms"),
    ("mean", MEAN_W1D, ("measure", "support"), 5, "support"),
    ("slln", SLLN, ("target_points", 0), [True], "target_points"),
    ("ldp", LDP, ("event_points", 0), ["1"], "event_points"),
    ("mean", MEAN, ("measure",), 5, "measure"),
    ("ldp", LDP, ("measure",), [[0.0]], "measure"),
    ("gamma", GAMMA, ("measures",), 5, "measures"),
    ("gamma", GAMMA, ("measures",), [5], "measures"),
    ("gamma", GAMMA, ("limit",), 5, "limit"),
    ("slln", SLLN, ("space",), [1], "space"),
    ("slln", SLLN, ("space",), None, "space"),
    ("dist", DIST_EUCLID, ("space",), "euclidean", "space"),
    ("slln", SLLN, ("sampler",), [1], "sampler"),
    ("ergodic", ERGODIC, ("sampler",), None, "sampler"),
]
# The same entries at values that must still run, with the configs above.
_GOOD_ENTRIES = [
    ("dist", DIST_LQ, ("space", "q"), 3),
    ("dist", DIST_EUCLID, ("space", "dim"), 2),
    ("slln", SLLN, ("sampler", "params"), [0, 1]),
    ("slln", FINITE, ("sampler", "atoms"), [0, 1]),
    ("ergodic", ERGODIC, ("sampler", "states"), [0, 3]),
    ("ergodic", ERGODIC, ("sampler", "initial_state"), 1),
    ("ergodic", ERGODIC, ("sampler", "kernel"), [[0, 1], [1, 0]]),
    ("mean", MEAN, ("measure", "weights"), [0.5, 0.5]),
    ("gamma", GAMMA, ("eps_sequence",), [0]),
    ("diag", DIAG, ("space", "legs"), 2),
    ("dist", DIST_SPIDER, ("x", 0), 2),
    ("mean", MEAN_SPIDER, ("measure", "support", 0, 0), 1),
]


def _with_entry(config: dict, path: tuple, value) -> dict:
    """A copy of ``config`` whose entry at the key path ``path`` is ``value``."""
    config = json.loads(json.dumps(config))
    node = config
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return config


def run(tmp_path, command, config, out_name="out", extra=()):
    out = str(tmp_path / out_name)
    code = main([command, "--config", config, "--out", out, *extra])
    return code, out


class TestDist:
    def test_euclidean(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "d.json", {
            "space": {"type": "euclidean", "dim": 2},
            "x": [0.0, 0.0], "y": [3.0, 4.0]})
        code, out = run(tmp_path, "dist", cfg)
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["distance"] == pytest.approx(5.0)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "dist" in capsys.readouterr().out

    def test_persistence_diagram_to_empty(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "space": {"type": "persistence-diagram", "q": 2.0},
            "x": [[0.0, 2.0]], "y": []})
        code, out = run(tmp_path, "dist", cfg)
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["distance"] == pytest.approx(math.sqrt(2.0), abs=1e-8)

    @pytest.mark.parametrize("x,y", [([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), (0.5, [1.0, 1.0])],
                             ids=["too-long", "scalar"])
    def test_points_outside_the_space_are_config_errors(self, tmp_path, capsys, x, y):
        # The kernel reads dim coordinates; other shapes are refused, not
        # truncated or broadcast.
        cfg = write_config(tmp_path, "d.json", {
            "space": {"type": "euclidean", "dim": 2}, "x": x, "y": y})
        code, out = run(tmp_path, "dist", cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and "points of the space" in err["message"]

    @pytest.mark.parametrize("space,x,y,bad", [
        ({"type": "euclidean", "dim": 2}, ["0", "1"], [0.0, 0.0], "'0'"),
        ({"type": "euclidean", "dim": 2}, [True, 1.0], [0.0, 0.0], "True"),
        ({"type": "lq", "truncation": 2, "q": 3.0}, [0.0, "1"], [0.0, 0.0], "'1'"),
        ({"type": "bures-wasserstein", "dim": 1}, ["1"], [2.0], "'1'"),
        ({"type": "bures-wasserstein", "dim": 2}, [1.0, 0.0, 0.0, False], [1.0, 0.0, 0.0, 1.0],
         "False"),
        ({"type": "wasserstein1d", "q": 2.0}, {"atoms": ["0.5"]}, {"atoms": [1.0]}, "'0.5'"),
        ({"type": "wasserstein1d", "q": 2.0}, {"atoms": [0.0, 1.0], "weights": ["0.5", 0.5]},
         {"atoms": [1.0]}, "'0.5'"),
        ({"type": "spider", "legs": 3}, [1, "0.5"], [0, 1.0], "'0.5'"),
        ({"type": "spider", "legs": 3}, [1, True], [0, 1.0], "True"),
        ({"type": "persistence-diagram", "q": 2.0}, [["0", 2.0]], [], "'0'"),
    ], ids=["euclidean-string", "euclidean-bool", "lq", "bw-1", "bw-2-bool", "w1d-atoms",
            "w1d-weights", "spider-string", "spider-bool", "diagram"])
    def test_strings_and_bools_in_a_point_are_refused(self, tmp_path, capsys, space, x, y,
                                                      bad):
        # np.asarray(..., dtype=float) and float() parse "0" and read True
        # as 1: the Euclidean ["0", "1"] ran at distance 1 from the origin.
        cfg = write_config(tmp_path, "d.json", {"space": space, "x": x, "y": y})
        code, _ = run(tmp_path, "dist", cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and bad in err["message"]


class TestMean:
    def test_three_atom_mean(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {
            "space": {"type": "euclidean", "dim": 1},
            "measure": {"support": [[1.0], [2.0], [3.0]]},
            "p": 2.0, "grid_step": 0.01, "grid_pad": 1.0})
        code, out = run(tmp_path, "mean", cfg)
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["mean_set"] == [pytest.approx([2.0], abs=0.01)]
        assert payload["result"]["resolution"] == pytest.approx(0.01)

    def test_override_changes_order(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {
            "space": {"type": "euclidean", "dim": 1},
            "measure": {"support": [[0.0], [0.0], [1.0]]},
            "p": 2.0, "grid_step": 0.01})
        code, out = run(tmp_path, "mean", cfg, extra=["--set", "p=1"])
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["mean_set"] == [pytest.approx([0.0], abs=1e-9)]


class TestExperimentCommands:
    def test_slln_writes_rows(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "space": {"type": "euclidean", "dim": 1},
            "sampler": {"kind": "iid", "distribution": "normal",
                        "params": [0.0, 1.0], "seed": 1},
            "p": 2.0, "n_grid": [50, 500], "replications": 3,
            "solver": "subgradient", "target_points": [[0.0]],
            "threshold": 0.5})
        code, out = run(tmp_path, "slln", cfg)
        assert code == EXIT_OK
        lines = open(out + ".csv").read().splitlines()
        assert lines[0] == "n,dvec,bl,moment_gap,runtime"
        assert len(lines) == 3
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["verdicts"]["final_below_threshold"]

    def test_csv_bodies_idempotent(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "space": {"type": "euclidean", "dim": 1},
            "sampler": {"kind": "iid", "distribution": "uniform",
                        "params": [0.0, 1.0], "seed": 2},
            "p": 2.0, "n_grid": [20, 80], "replications": 2,
            "solver": "subgradient", "target_points": [[0.5]]})
        _, out1 = run(tmp_path, "slln", cfg, out_name="a")
        _, out2 = run(tmp_path, "slln", cfg, out_name="b")
        assert open(out1 + ".csv", "rb").read() == open(out2 + ".csv", "rb").read()

    def test_ergodic(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", {
            "space": {"type": "euclidean", "dim": 1},
            "sampler": {"kind": "markov-chain", "states": [0.0, 3.0],
                        "kernel": [[0.6, 0.4], [0.4, 0.6]], "seed": 3},
            "p": 2.0, "n_grid": [100, 2000], "solver": "subgradient",
            "threshold": 0.3})
        code, out = run(tmp_path, "ergodic", cfg)
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["dvec"][-1] < 0.3

    def test_ldp(self, tmp_path):
        cfg = write_config(tmp_path, "l.json", {
            "space": {"type": "euclidean", "dim": 1},
            "measure": {"support": [[0.0], [1.0]], "weights": [0.7, 0.3]},
            "p": 2.0, "n_grid": [20, 40], "event_points": [[1.0]],
            "mode": "exact-binomial", "simplex_step": 0.001})
        code, out = run(tmp_path, "ldp", cfg)
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["theoretical_rate"] == pytest.approx(0.0871766, abs=1e-3)

    def test_gamma(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", {
            "space": {"type": "euclidean", "dim": 1},
            "measures": [{"support": [[0.0], [1.5]]}, {"support": [[0.0], [1.25]]},
                         {"support": [[0.0], [1.125]]}],
            "limit": {"support": [[0.0], [1.0]]},
            "p": 2.0, "grid_step": 0.01, "eps_sequence": [0.0, 0.0, 0.0]})
        code, out = run(tmp_path, "gamma", cfg)
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["dvec"][-1] < payload["result"]["dvec"][0]

    def test_diag(self, tmp_path):
        cfg = write_config(tmp_path, "dg.json", {
            "space": {"type": "spider", "legs": 3}, "trials": 200, "seed": 4})
        code, out = run(tmp_path, "diag", cfg)
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["passed"] is True

    def test_solver_nonconvergence_exits_3_with_partial_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "space": {"type": "euclidean", "dim": 1},
            "sampler": {"kind": "markov-chain", "states": [0.0, 3.0],
                        "kernel": [[0.5, 0.5], [0.5, 0.5]], "seed": 7},
            "p": 3.0, "n_grid": [50], "solver": "subgradient",
            "target_points": [[1.5]], "max_iterations": 1})
        code, out = run(tmp_path, "ergodic", cfg)
        assert code == EXIT_SOLVER
        err = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert err["error"] == "solver"
        partial = json.loads(open(out + ".json").read())
        assert partial["result"]["error"] == "solver"


class TestErrorPaths:
    def test_epsilon_with_a_point_solver(self, tmp_path, capsys):
        # A point solver returns one minimizer, never an epsilon-band.
        cfg = write_config(tmp_path, "s.json", {
            "space": {"type": "euclidean", "dim": 1},
            "sampler": {"kind": "iid", "distribution": "cauchy",
                        "params": [0.0, 1.0], "seed": 1},
            "p": 1.0, "n_grid": [20], "solver": "weiszfeld", "epsilon": 0.1,
            "target_points": [[0.0]]})
        code, _ = run(tmp_path, "slln", cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and "epsilon" in err["message"]

    def test_weiszfeld_and_subgradient_write_the_same_p1_report(self, tmp_path):
        # One median iteration under two names: the same dvec, moments and CSV.
        cauchy = {**SLLN, "p": 1.0, "n_grid": [10, 100, 1000], "replications": 3,
                  "sampler": {"kind": "iid", "distribution": "cauchy",
                              "params": [0.0, 1.0], "seed": 5}}
        outs = []
        for name in ("weiszfeld", "subgradient"):
            cfg = write_config(tmp_path, f"{name}_config.json", {**cauchy, "solver": name})
            code, out = run(tmp_path, "slln", cfg, out_name=name)
            assert code == EXIT_OK
            outs.append((_result(out), Path(out + ".csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_weiszfeld_at_p_other_than_one(self, tmp_path, capsys):
        # The Weiszfeld iteration computes the p = 1 median; at p = 2 it
        # reported that median as the mean.
        cfg = write_config(tmp_path, "s.json", {**SLLN, "solver": "weiszfeld"})
        code, out = run(tmp_path, "slln", cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and "weiszfeld" in err["message"]
        assert "p = 2.0" in err["message"] and not os.path.exists(out + ".json")

    def test_a_wasserstein1d_member_given_as_a_list(self, tmp_path, capsys):
        # It ended in "TypeError: list indices must be integers or slices,
        # not str", a traceback (exit 1).
        cfg = write_config(tmp_path, "w.json", _with_entry(
            MEAN_W1D, ("measure", "support", 0), [-1.0, 0.12, 0.5]))
        code, _ = run(tmp_path, "mean", cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and "must be a JSON object" in err["message"]

    @pytest.mark.parametrize("command,payload", [
        ("slln", {"sampler": {"kind": "iid", "distribution": "normal",
                              "params": [0.0, 1.0], "seed": 1},
                  "n_grid": [50], "solver": "subgradient", "target_points": [[0.0]]}),
        ("ldp", {"measure": {"support": [[0.0], [1.0]], "weights": [0.7, 0.3]},
                 "n_grid": [20], "event_points": [[1.0]], "mode": "monte-carlo",
                 "simplex_step": 0.25}),
    ], ids=["slln", "ldp-monte-carlo"])
    def test_no_replications_is_a_config_error(self, tmp_path, capsys, command, payload):
        # No division by zero and no row of NaNs: zero replications is refused.
        cfg = write_config(tmp_path, "r.json", {
            "space": {"type": "euclidean", "dim": 1}, "p": 2.0, "replications": 0,
            **payload})
        code, out = run(tmp_path, command, cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and "replication" in err["message"]
        assert not os.path.exists(out + ".csv")

    def test_ball_grid_rejected_by_name(self, tmp_path, capsys):
        # The command line takes no centre or radius for a ball-grid.
        cfg = write_config(tmp_path, "m.json", {
            "space": {"type": "euclidean", "dim": 1},
            "measure": {"support": [[0.0], [1.0]]},
            "p": 2.0, "scheme": "ball-grid", "grid_step": 0.1})
        code, out = run(tmp_path, "mean", cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and "ball-grid" in err["message"]
        assert "radius" in err["message"] and "command line" in err["message"]
        assert not os.path.exists(out + ".json")

    @pytest.mark.parametrize("command,payload", [
        ("mean", {}),
        ("ldp", {"n_grid": [20], "event_points": [[1.0]], "mode": "monte-carlo",
                 "replications": 50, "simplex_step": 0.25}),
    ], ids=["mean", "ldp-monte-carlo"])
    def test_nan_weight_is_a_config_error(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, "w.json", {
            "space": {"type": "euclidean", "dim": 1}, "p": 2.0,
            "measure": {"support": [[0.0], [1.0]], "weights": [math.nan, 1.0]},
            **payload})
        assert "NaN" in Path(cfg).read_text()  # JSON's NaN literal
        code, out = run(tmp_path, command, cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and "weights" in err["message"]
        assert not os.path.exists(out + ".json")

    @pytest.mark.parametrize("key,value", [
        ("grid_step", math.nan), ("grid_step", math.inf), ("grid_step", 0.0),
        ("grid_pad", -5.0), ("grid_pad", math.nan),
    ], ids=["step-nan", "step-inf", "step-zero", "pad-negative", "pad-nan"])
    @pytest.mark.parametrize("command,payload", [
        ("mean", {"measure": {"support": [[0.0], [1.0]]}}),
        ("slln", {"sampler": {"kind": "iid", "distribution": "normal",
                              "params": [0.0, 1.0], "seed": 1},
                  "n_grid": [20], "target_points": [[0.0]]}),
        ("ergodic", {"sampler": {"kind": "markov-chain", "states": [0.0, 3.0],
                                 "kernel": [[0.6, 0.4], [0.4, 0.6]], "seed": 3},
                     "n_grid": [20], "target_points": [[1.5]]}),
    ], ids=["mean", "slln", "ergodic"])
    def test_bad_grid_keys_are_config_errors(self, tmp_path, capsys, command, payload,
                                             key, value):
        # Unchecked, each fails deep in the grid code with a message that
        # names no key, or runs: an infinite step leaves no band and a
        # negative pad a mean set outside the support's hull.
        cfg = write_config(tmp_path, "g.json", {
            "space": {"type": "euclidean", "dim": 1}, "p": 2.0, "solver": "grid",
            key: value, **payload})
        code, out = run(tmp_path, command, cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and key in err["message"]
        assert not os.path.exists(out + ".json")

    @pytest.mark.parametrize("command,payload", [
        ("slln", SLLN), ("ergodic", ERGODIC), ("ldp", LDP), ("diag", DIAG), ("mean", MEAN),
        ("gamma", GAMMA),
        *[pytest.param(command, {**_CONFIGS[command], key: value},
                       id=f"{command}-{key}-{value!r}") for command, key, value in [
            ("slln", "p", 1), ("slln", "epsilon", 0), ("ergodic", "epsilon", 0.0),
            ("ldp", "p", 1.0), ("mean", "p", 1), ("mean", "epsilon", 0.0), ("gamma", "p", 1),
            ("diag", "p", 1.0), ("slln", "seed", 0), ("diag", "trials", 2)]],
        *[pytest.param(command, _with_entry(config, path, value),
                       id=f"{command}-{'.'.join(map(str, path))}-{value!r}")
          for command, config, path, value in _GOOD_ENTRIES]])
    def test_the_configs_varied_below_run(self, tmp_path, command, payload):
        # So each refusal below is owed to the one key it changes; the
        # boundary values at the end still run.
        code, _ = run(tmp_path, command, write_config(tmp_path, "k.json", payload))
        assert code == EXIT_OK

    @pytest.mark.parametrize("command,payload,key", [
        ("slln", {**SLLN, "n_grid": []}, "n_grid"),
        ("ergodic", {**ERGODIC, "n_grid": []}, "n_grid"),
        ("ldp", {**LDP, "n_grid": []}, "n_grid"),
        ("ldp", {**LDP, "n_grid": [0]}, "n_grid"),
        ("ldp", {**LDP, "n_grid": [-3]}, "n_grid"),
        ("ldp", {**LDP, "n_grid": [0], "mode": "monte-carlo", "replications": 5},
         "n_grid"),
        ("ldp", {**LDP, "simplex_step": 0.0}, "simplex_step"),
        ("ldp", {**LDP, "simplex_step": math.nan}, "simplex_step"),
        ("ldp", {**LDP, "simplex_step": -0.1}, "simplex_step"),
        ("ldp", {**LDP, "simplex_step": 0.3}, "simplex_step"),
        ("diag", {"space": {"type": "spider", "legs": 3}, "trials": -5}, "trials"),
        ("diag", {"space": {"type": "spider", "legs": 3}, "trials": 0}, "trials"),
        ("mean", {**MEAN, "p": 10 ** 400}, "p"),
        *[(command, {**_CONFIGS[command], key: value}, key) for command, key, value in _BAD_KEYS],
        *[(command, _with_entry(config, path, value), key)
          for command, config, path, value, key in _BAD_ENTRIES],
    ], ids=["slln-empty-grid", "ergodic-empty-grid", "ldp-empty-grid", "ldp-zero-n",
            "ldp-negative-n", "ldp-monte-carlo-zero-n", "step-zero", "step-nan",
            "step-negative", "step-not-dividing", "diag-negative-trials", "diag-no-trials",
            "mean-p-beyond-float",
            *[f"{command}-{key}-{value!r}" for command, key, value in _BAD_KEYS],
            *[f"{command}-{'.'.join(map(str, path))}-{value!r}"
              for command, _, path, value, _ in _BAD_ENTRIES]])
    def test_degenerate_experiment_keys_are_config_errors(self, tmp_path, capsys, command,
                                                          payload, key):
        # Unchecked, these end in a traceback, in a message that names no
        # key, in a run that reports nothing (no rows, or passed=True after
        # zero trials), or in a run on a value that should be refused: a NaN
        # or infinite p, epsilon or tolerance exited 0 (an ldp with p NaN
        # reported theoretical_rate inf), and int() truncated a count of 2.5
        # to 2 and parsed "3". float() of a 400-digit integer p raised
        # OverflowError (a traceback).
        code, out = run(tmp_path, command, write_config(tmp_path, "k.json", payload))
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and err["message"].startswith(f"{key} ")
        assert not os.path.exists(out + ".csv")

    @pytest.mark.parametrize("command,payload", [("slln", SLLN), ("ergodic", ERGODIC)],
                             ids=["slln", "ergodic"])
    @pytest.mark.parametrize("value", ["0.5", math.nan, math.inf, 0.0, -0.5, True, [0.5]],
                             ids=["string", "nan", "inf", "zero", "negative", "bool", "list"])
    def test_bad_threshold_is_a_config_error(self, tmp_path, capsys, command, payload, value):
        # Unchecked, a string ran the whole experiment and then ended in a
        # TypeError traceback (exit 1), and a NaN reported
        # final_below_threshold false.
        cfg = write_config(tmp_path, "t.json", {**payload, "threshold": value})
        code, out = run(tmp_path, command, cfg)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config" and "threshold" in err["message"]
        assert not os.path.exists(out + ".json")

    @pytest.mark.parametrize("command,payload", [("slln", SLLN), ("ergodic", ERGODIC)],
                             ids=["slln", "ergodic"])
    @pytest.mark.parametrize("value,verdict", [(None, None), (100, True), (1e-300, False)],
                             ids=["null", "integer", "tiny"])
    def test_threshold_null_or_positive_runs(self, tmp_path, command, payload, value, verdict):
        code, out = run(tmp_path, command,
                        write_config(tmp_path, "t.json", {**payload, "threshold": value}))
        assert code == EXIT_OK
        verdicts = json.loads(Path(out + ".json").read_text())["result"]["verdicts"]
        assert verdicts.get("final_below_threshold") is verdict

    def test_support_scheme_still_runs(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {
            "space": {"type": "euclidean", "dim": 1},
            "measure": {"support": [[0.0], [0.0], [1.0]]},
            "p": 1.0, "scheme": "support"})
        code, out = run(tmp_path, "mean", cfg)
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["result"]["mean_set"] == [[0.0]]

    def test_bad_schema_version(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        code = main(["dist", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config"

    def test_missing_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "space": {"type": "euclidean", "dim": 1}})
        code, _ = run(tmp_path, "dist", cfg)
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().out)["error"] == "config"

    def test_unknown_space(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "space": {"type": "hyperbolic"}, "x": [0.0], "y": [1.0]})
        code, _ = run(tmp_path, "dist", cfg)
        assert code == EXIT_CONFIG

    def test_missing_file(self, tmp_path, capsys):
        code = main(["dist", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_json_round_trip_under_schema(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "space": {"type": "euclidean", "dim": 1},
            "x": [0.0], "y": [1.0]})
        code, out = run(tmp_path, "dist", cfg)
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload) == {"schema_version", "command", "config", "result",
                                "metadata"}
        assert "timestamp" in payload["metadata"]


def _fresh_modules(code: str, **env: str) -> dict:
    """The modules a fresh interpreter, with the variables ``env`` set,
    holds after running ``code``: the ``frechet`` ones, and which of numpy,
    numpy.ma, scipy and the stdlib modules that only some commands use were
    loaded."""
    report = ("import json, sys; print(json.dumps({"
              "'frechet': sorted(m for m in sys.modules if m.split('.')[0] == 'frechet'), "
              "'other': sorted(m for m in sys.modules if m in ('logging', 'csv', "
              "'concurrent.futures', 'numpy', 'numpy.ma') or m.split('.')[0] == 'scipy')}))")
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=fresh_env(**env),
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


START_UP = ["frechet", "frechet.cli", "frechet.core", "frechet.solvers", "frechet.spaces"]


def test_cli_import_loads_no_scipy():
    # Starting the CLI loads what dist, mean and diag need and no more:
    # scipy, the experiment modules, logging and csv are imported where they
    # are used.
    loaded = _fresh_modules("import frechet.cli")
    assert loaded["frechet"] == START_UP
    assert loaded["other"] == ["numpy"]


def test_bare_package_import_loads_no_submodule():
    assert _fresh_modules("import frechet") == {"frechet": ["frechet"], "other": []}


def _modules_after_call(tmp_path, command: str, payload: dict, **env: str) -> dict:
    """``_fresh_modules`` after one ``command`` run of ``payload``."""
    cfg = write_config(tmp_path, f"{command}_config.json", payload)
    return _fresh_modules(f"import frechet.cli\n"
                          f"assert frechet.cli.main([{command!r}, '--config', {cfg!r}, "
                          f"'--out', {str(tmp_path / command)!r}]) == 0", **env)


def test_a_mean_call_loads_no_further_frechet_module(tmp_path):
    loaded = _modules_after_call(tmp_path, "mean", {
        "space": {"type": "euclidean", "dim": 1},
        "measure": {"support": [[1.0], [2.0], [3.0]]}, "p": 2.0, "grid_step": 0.01})
    assert loaded["frechet"] == START_UP


def test_a_wasserstein1d_mean_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (about 1.2 MB of RSS);
    # the quantile kernel groups its rows without it.
    loaded = _modules_after_call(tmp_path, "mean", MEAN_W1D)
    assert loaded["frechet"] == START_UP and loaded["other"] == ["numpy"]


def test_a_vector_support_mean_returns_exact_atoms(tmp_path):
    # Candidates rounded to 12 decimals (np.unique, which loads numpy.ma)
    # gave 0.123456789012, not an atom, at a value of 3.5e-13.
    atom = 0.1234567890123456
    loaded = _modules_after_call(tmp_path, "mean", {
        "space": {"type": "euclidean", "dim": 1}, "p": 1.0, "scheme": "support",
        "measure": {"support": [[atom], [2.0], [atom]]}})
    assert loaded["frechet"] == START_UP and loaded["other"] == ["numpy"]
    result = json.loads((tmp_path / "mean.json").read_text())["result"]
    assert result["mean_set"] == [[atom]] and result["achieved_value"] == 0.0
    # A tie lists the atoms in the order they first appear, not sorted.
    cfg = write_config(tmp_path, "tie.json", {
        "space": {"type": "euclidean", "dim": 1}, "p": 1.0, "scheme": "support",
        "measure": {"support": [[2.0], [1.0], [3.0], [0.0]]}})
    code, out = run(tmp_path, "mean", cfg)
    assert code == EXIT_OK
    assert json.loads(Path(out + ".json").read_text())["result"]["mean_set"] == [[2.0], [1.0]]


def test_a_support_mean_over_200_atoms_reports_the_proven_radius(tmp_path):
    # More than 128 candidates exited 2: "candidate set too large to
    # estimate a resolution; pass resolution explicitly". The resolution was
    # then the atoms' mesh; it is now 2 S(a)**(1/p) for the best atom a.
    import numpy as np

    argv = cold_runs.arguments("Cold support mean", tmp_path)
    assert main(argv) == EXIT_OK
    result = json.loads(Path(argv[-1] + ".json").read_text())["result"]
    atoms = np.array(MEAN_SUPPORT_200["measure"]["support"])
    assert len({tuple(a) for a in atoms}) == 200
    moments = (np.linalg.norm(atoms[:, None] - atoms[None], axis=-1) ** 2).mean(axis=1)
    assert result["resolution"] == pytest.approx(2.0 * np.sqrt(moments.min()), rel=1e-11)
    assert result["mean_set"] and all(x in atoms.tolist() for x in result["mean_set"])
    mean = atoms.mean(axis=0)
    assert min(np.linalg.norm(np.array(result["mean_set"]) - mean, axis=1)) <= result["resolution"]


def test_a_support_mean_on_a_circle_covers_the_centre(tmp_path):
    # The exact mean, the centre, lies 10 from every atom; the atoms' mesh,
    # the resolution reported before, was 0.314.
    import numpy as np

    t = 2.0 * np.pi * np.arange(200) / 200
    atoms = np.column_stack([10.0 * np.cos(t), 10.0 * np.sin(t)]).tolist()
    cfg = write_config(tmp_path, "circle.json", {
        "space": {"type": "euclidean", "dim": 2}, "p": 2.0, "scheme": "support",
        "measure": {"support": atoms}})
    code, out = run(tmp_path, "mean", cfg)
    assert code == EXIT_OK
    result = json.loads(Path(out + ".json").read_text())["result"]
    assert 10.0 <= result["resolution"] == pytest.approx(2.0 * np.sqrt(200.0), rel=1e-11)


def test_a_solver_seeded_mean_reports_the_radius_of_its_best_seed(tmp_path):
    # Diracs at 0 and 1: the barycenter seed, the Dirac at 0.5, is the band,
    # with S = 0.25 and so a radius of 2 * 0.25**(1/2) = 1.
    cfg = write_config(tmp_path, "seeded.json", {
        "space": {"type": "wasserstein1d", "q": 2.0}, "p": 2.0, "scheme": "solver-seeded",
        "measure": {"support": [{"atoms": [0.0]}, {"atoms": [1.0]}]}})
    code, out = run(tmp_path, "mean", cfg)
    assert code == EXIT_OK
    result = json.loads(Path(out + ".json").read_text())["result"]
    assert result["mean_set"] == [{"atoms": [0.5], "weights": [1.0]}]
    assert result["resolution"] == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("command,payload", [
    ("slln", SLLN), ("ergodic", ERGODIC),
    ("ldp", {**LDP, "mode": "monte-carlo", "replications": 20})],
    ids=["slln-normal", "ergodic", "ldp-monte-carlo"])
def test_experiments_load_no_scipy(tmp_path, command, payload):
    # The normal sampler's quantile is a numpy port of scipy's ndtri.
    assert SLLN["sampler"]["distribution"] == "normal"
    loaded = _modules_after_call(tmp_path, command, payload)["other"]
    assert "numpy" in loaded and not [m for m in loaded if m.startswith("scipy")]
    # The Monte Carlo replications are grouped by support size without np.unique.
    assert "numpy.ma" not in loaded


@pytest.mark.parametrize("threads", ["4", "abc"])
def test_replications_start_no_thread_pool(tmp_path, threads):
    # Replications run one after another in index order. FRECHET_THREADS,
    # which once sized a thread pool, is read by nothing: "abc" used to stop
    # every slln and ergodic run with an int() error.
    loaded = _modules_after_call(tmp_path, "slln", {**SLLN, "replications": 4},
                                 FRECHET_THREADS=threads)
    assert "numpy" in loaded["other"] and "concurrent.futures" not in loaded["other"]


def test_exact_binomial_ldp_loads_scipy_stats(tmp_path):
    # The README names it as one of the two scipy users.
    loaded = _modules_after_call(tmp_path, "ldp", {**LDP, "mode": "exact-binomial"})
    assert "scipy.stats" in loaded["other"]


class TestParserAndSidecar:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("text,overrides,key", [
        ("[1, 2]", [], "config"), ("null", [], "config"), ('"schema_version"', [], "config"),
        (None, ["x.a=1"], "x"), (None, ["space.dim.k=1"], "space.dim"), (None, ["y.0=1"], "y"),
        (None, ["space=[1]", "space.type=lq"], "space"), (None, ["a.b=1", "a.b.c=2"], "a.b")],
        ids=["list", "null", "string", "set-through-list", "set-through-number", "set-list-index",
             "set-through-set-list", "set-through-set-number"])
    def test_config_of_the_wrong_structure_is_a_config_error(self, tmp_path, capsys, text,
                                                             overrides, key):
        # Unchecked, each ended in a TypeError or AttributeError traceback.
        cfg = write_config(tmp_path, "d.json", DIST_EUCLID)
        if text is not None:
            Path(cfg).write_text(text)
        code, out = run(tmp_path, "dist", cfg,
                        extra=[arg for item in overrides for arg in ("--set", item)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        err = json.loads(captured.out)
        assert err["error"] == "config" and err["message"].startswith(f"{key} must be ")
        assert captured.err == "" and not os.path.exists(out + ".json")

    def test_overrides_do_not_leak_into_the_next_call(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "space": {"type": "euclidean", "dim": 1}, "x": [0.0], "y": [1.0]})
        code, first = run(tmp_path, "dist", cfg, out_name="first",
                          extra=["--set", "y=[3.0]", "--seed", "5"])
        assert code == EXIT_OK
        code, second = run(tmp_path, "dist", cfg, out_name="second")
        assert code == EXIT_OK
        a = json.loads(Path(first + ".json").read_text())
        b = json.loads(Path(second + ".json").read_text())
        assert a["result"]["distance"] == 3.0 and a["config"]["seed"] == 5
        assert b["result"]["distance"] == 1.0
        assert b["config"]["y"] == [1.0] and "seed" not in b["config"]

    def test_sidecar_is_compact_sorted_json(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "space": {"type": "euclidean", "dim": 2}, "x": [0.0, 0.0], "y": [3.0, 4.0]})
        code, out = run(tmp_path, "dist", cfg)
        assert code == EXIT_OK
        text = Path(out + ".json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True)


def _result(out) -> dict:
    """The sidecar's result without the measured ``runtimes``."""
    result = json.loads(Path(str(out) + ".json").read_text())["result"]
    return {k: v for k, v in result.items() if k != "runtimes"}


class TestRerunsAndOutputs:
    @pytest.mark.parametrize("name", ["Cold mean", "Cold BW mean", "Cold heavy-tail grid SLLN"])
    def test_the_same_arguments_run_twice(self, tmp_path, name):
        # The argument builders once wrote the config where the run writes
        # its sidecar, so the second call read a sidecar as its config.
        argv = cold_runs.arguments(name, tmp_path)
        assert main(argv) == EXIT_OK
        first = _result(argv[-1])
        assert main(argv) == EXIT_OK
        assert _result(argv[-1]) == first

    @pytest.mark.parametrize("config_name,out_name,command,payload", [
        ("x.json", "x", "mean", MEAN), ("x.csv", "x", "slln", SLLN),
        ("sub/../x.json", "x", "mean", MEAN)], ids=["sidecar", "csv", "other-spelling"])
    def test_an_out_over_its_own_config_is_refused(self, tmp_path, capsys, config_name,
                                                   out_name, command, payload):
        (tmp_path / "sub").mkdir()
        cfg = write_config(tmp_path, config_name, payload)
        before = Path(cfg).read_bytes()
        code, out = run(tmp_path, command, cfg, out_name=out_name)
        assert code == EXIT_CONFIG
        message = json.loads(capsys.readouterr().out)["message"]
        assert cfg in message and out in message and "overwrite" in message
        assert Path(cfg).read_bytes() == before
        other = ".csv" if config_name.endswith(".json") else ".json"
        assert not os.path.exists(out + other)

    def test_an_out_linked_to_its_config_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "real.json", MEAN)
        os.symlink(cfg, tmp_path / "link.json")
        code, _ = run(tmp_path, "mean", cfg, out_name="link")
        assert code == EXIT_CONFIG
        assert "overwrite" in json.loads(capsys.readouterr().out)["message"]

    def test_a_shorter_rewrite_leaves_no_tail(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SLLN)
        for suffix in (".json", ".csv"):
            (tmp_path / f"out{suffix}").write_bytes(b"x" * 100_000)
        inodes = [os.stat(tmp_path / f"out{suffix}").st_ino for suffix in (".json", ".csv")]
        code, out = run(tmp_path, "slln", cfg)
        assert code == EXIT_OK
        code, fresh = run(tmp_path, "slln", cfg, out_name="fresh")
        assert code == EXIT_OK
        assert Path(out + ".csv").read_bytes() == Path(fresh + ".csv").read_bytes()
        text = Path(out + ".json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True)
        assert _result(out) == _result(fresh)
        assert inodes == [os.stat(out + suffix).st_ino for suffix in (".json", ".csv")]

    def test_a_rerun_into_the_same_prefix(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SLLN)
        code, out = run(tmp_path, "slln", cfg)
        assert code == EXIT_OK
        csv, result = Path(out + ".csv").read_bytes(), _result(out)
        code, out = run(tmp_path, "slln", cfg)
        assert code == EXIT_OK
        assert Path(out + ".csv").read_bytes() == csv and _result(out) == result

    def test_links_are_written_through(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SLLN)
        target = tmp_path / "target"
        target.mkdir()
        (target / "real.json").write_bytes(b"x" * 10_000)
        (target / "real.csv").write_bytes(b"x" * 10_000)
        os.symlink(target / "real.json", tmp_path / "out.json")
        os.link(target / "real.csv", tmp_path / "out.csv")
        code, out = run(tmp_path, "slln", cfg)
        assert code == EXIT_OK
        code, fresh = run(tmp_path, "slln", cfg, out_name="fresh")
        assert code == EXIT_OK
        assert os.path.islink(out + ".json") and _result(target / "real") == _result(fresh)
        assert (target / "real.csv").read_bytes() == Path(fresh + ".csv").read_bytes()
        assert os.path.samefile(target / "real.csv", out + ".csv")

    def test_an_out_naming_a_directory_is_an_io_error(self, tmp_path, capsys):
        (tmp_path / "out.json").mkdir()
        code, _ = run(tmp_path, "dist", write_config(tmp_path, "d.json", DIST_EUCLID))
        assert code == EXIT_IO
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["error"] == "io"

    def test_rewrite_is_open_for_writing(self, tmp_path):
        # The bytes, the length and a new file's mode are those of open(path, "w").
        path, reference = tmp_path / "a.txt", tmp_path / "b.txt"
        path.write_text("x" * 1000)
        inode = os.stat(path).st_ino
        _rewrite(str(path), "short")
        assert path.read_bytes() == b"short" and os.stat(path).st_ino == inode
        _rewrite(str(tmp_path / "new.txt"), "")
        with open(reference, "w"):
            pass
        assert os.stat(tmp_path / "new.txt").st_mode == os.stat(reference).st_mode
        assert (tmp_path / "new.txt").read_bytes() == b""
