"""CLI CSV bodies pinned as golden files.

Each config below is one of the experiment configs of ``test_cli.py``, or
a second config of one command (``COMMANDS`` names its command). The CSV
that ``frechet.cli.main`` writes for it must equal, byte for byte, the
file recorded under ``tests/golden/``, both in process and from
``python -m frechet.cli`` in a fresh interpreter. Runtimes never reach the
CSV, so the bodies are a pure function of the seed and the config.

To record the files again, run ``python tests/test_golden.py`` with
``src`` on ``PYTHONPATH``; do so only when a change is meant to alter
results, and say so in the change log.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from frechet.cli import EXIT_OK, SCHEMA_VERSION, main

from conftest import fresh_env

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIGS = {
    "slln": {
        "space": {"type": "euclidean", "dim": 1},
        "sampler": {"kind": "iid", "distribution": "normal",
                    "params": [0.0, 1.0], "seed": 1},
        "p": 2.0, "n_grid": [50, 500], "replications": 3,
        "solver": "subgradient", "target_points": [[0.0]],
        "threshold": 0.5},
    "ergodic": {
        "space": {"type": "euclidean", "dim": 1},
        "sampler": {"kind": "markov-chain", "states": [0.0, 3.0],
                    "kernel": [[0.6, 0.4], [0.4, 0.6]], "seed": 3},
        "p": 2.0, "n_grid": [100, 2000], "solver": "subgradient",
        "threshold": 0.3},
    "ldp": {
        "space": {"type": "euclidean", "dim": 1},
        "measure": {"support": [[0.0], [1.0]], "weights": [0.7, 0.3]},
        "p": 2.0, "n_grid": [20, 40], "event_points": [[1.0]],
        "mode": "exact-binomial", "simplex_step": 0.001},
    "ldp-monte-carlo": {
        "space": {"type": "euclidean", "dim": 1},
        "measure": {"support": [[-1.0], [0.0], [1.0], [2.0]],
                    "weights": [0.4, 0.3, 0.2, 0.1]},
        "p": 2.0, "n_grid": [5, 20], "event_points": [[1.0]],
        "mode": "monte-carlo", "replications": 300, "seed": 11,
        "simplex_step": 0.05},
    "gamma": {
        "space": {"type": "euclidean", "dim": 1},
        "measures": [{"support": [[0.0], [1.5]]}, {"support": [[0.0], [1.25]]},
                     {"support": [[0.0], [1.125]]}],
        "limit": {"support": [[0.0], [1.0]]},
        "p": 2.0, "grid_step": 0.01, "eps_sequence": [0.0, 0.0, 0.0]},
    "diag": {"space": {"type": "spider", "legs": 3}, "trials": 200, "seed": 4},
}

# The command of a config whose name is not a command.
COMMANDS = {"ldp-monte-carlo": "ldp"}


def _arguments(name: str, workdir: Path) -> list[str]:
    """The CLI arguments that run ``CONFIGS[name]`` into ``workdir``."""
    config = workdir / f"{name}_config.json"
    config.write_text(json.dumps({"schema_version": SCHEMA_VERSION, **CONFIGS[name]}))
    return [COMMANDS.get(name, name), "--config", str(config), "--out", str(workdir / name)]


def render_csv(name: str, workdir: Path) -> bytes:
    """The CSV bytes the CLI writes for ``CONFIGS[name]``."""
    assert main(_arguments(name, workdir)) == EXIT_OK
    return (workdir / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_csv_body_matches_golden(command, tmp_path):
    assert render_csv(command, tmp_path) == (GOLDEN / f"{command}.csv").read_bytes()


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_cold_start_csv_matches_golden(command, tmp_path):
    # One fresh interpreter per command: a lazy import that works only
    # because another test loaded its module first, or that is circular,
    # fails here.
    subprocess.run([sys.executable, "-m", "frechet.cli", *_arguments(command, tmp_path)],
                   env=fresh_env(), capture_output=True, check=True,
                   timeout=300)
    assert (tmp_path / f"{command}.csv").read_bytes() == (GOLDEN / f"{command}.csv").read_bytes()


@pytest.mark.parametrize("command", ["slln", "ergodic", "gamma", "ldp", "ldp-monte-carlo"])
def test_reports_serialize_as_the_hand_built_dicts(command, tmp_path, monkeypatch):
    # The report's own fields, with ``bl`` added for a convergence report,
    # give the sidecar the keys and values it had when each was copied by hand.
    from frechet.convergence import ConvergenceReport
    from frechet.stochastics import LdpResult
    from oracles import convergence_report_json, ldp_result_json

    cls, oracle = ((LdpResult, ldp_result_json) if command.startswith("ldp")
                   else (ConvergenceReport, convergence_report_json))
    seen = []
    to_json_dict = cls.to_json_dict
    monkeypatch.setattr(cls, "to_json_dict",
                        lambda self: seen.append((self, to_json_dict(self))) or seen[-1][1])
    assert main(_arguments(command, tmp_path)) == EXIT_OK
    (report, got), = seen
    expected = oracle(report)
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert _types(got) == _types(expected)


def _types(obj):
    """The Python types in ``obj``, down through its lists and dicts."""
    if isinstance(obj, dict):
        return {k: _types(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_types(v) for v in obj]
    return type(obj)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            (GOLDEN / f"{name}.csv").write_bytes(render_csv(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}.csv", file=sys.stderr)
