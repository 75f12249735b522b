"""The benchmark's correctness gate, run as a test.

Generates the ``mean-grid`` and ``experiments`` workloads' calls from
``bench/workloads.py``, checks their digest and reads the stored
references as ``bench/run.py`` does, runs each call through
``frechet.cli.main`` and checks every result with ``bench/check.py``
against the reference for that seed, so the suite fails on the same
outputs the benchmark counts as failed. The benchmark's files are only
read.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from frechet import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_runner():
    """``bench/run.py`` as a module, with the siblings it imports by name.

    Nothing is written under bench/ (no bytecode), and the thread caps
    run.py sets in os.environ for its children are undone afterwards.
    """
    env, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    write_bytecode = sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = write_bytecode
        os.environ.clear()
        os.environ.update(env)
        for name in set(sys.modules) - modules:
            if name in ("check", "workloads", "layer_trace"):
                del sys.modules[name]
    return module


run = _load_runner()
REFERENCES = {name: run.load_references(name) for name in ("mean-grid", "experiments")}


@pytest.mark.parametrize("seed", [0, 1])
def test_mean_grid_matches_references(seed, tmp_path):
    _check_workload("mean-grid", seed, tmp_path)


@pytest.mark.parametrize("seed", [0, 1])
def test_experiments_matches_references(seed, tmp_path):
    _check_workload("experiments", seed, tmp_path)


def _check_workload(workload, seed, tmp_path):
    calls = run.workloads.generate(workload, seed)
    reference = REFERENCES[workload][str(seed)]
    assert run._config_sha(calls) == reference["config_sha"]
    for i, ((command, config), ref) in enumerate(zip(calls, reference["results"])):
        config_path = tmp_path / f"call{i}.config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / f"call{i}"
        code = cli.main([command, "--config", str(config_path), "--out", str(out)])
        result = json.loads(out.with_suffix(".json").read_text())["result"] if code == 0 else None
        assert run.check.check_call(command, config, result, ref) == [], (command, i)
