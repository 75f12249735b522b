"""The CI workflow against the documents it must agree with. The workflow
and ``pyproject.toml`` are read as text, so no YAML or TOML parser is needed
on any supported Python."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cold_runs
from conftest import fresh_env

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def _run_lines() -> list[str]:
    return [m.group(1).strip() for m in re.finditer(r"^\s*run:\s*(.+)$", WORKFLOW, re.M)]


def _requirements(key: str) -> list[str]:
    """The quoted requirements of the list ``key = [...]`` in pyproject.toml."""
    block = re.search(rf"^{key} = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    assert block is not None, key
    return re.findall(r'"([^"]+)"', block.group(1))


def _package_name(requirement: str) -> str:
    return re.split(r"[<>=!~\[;\s]", requirement, maxsplit=1)[0].lower()


def _verify_command() -> str:
    roadmap = (ROOT / "ROADMAP.md").read_text()
    verify = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.M)
    assert verify is not None
    return verify.group(1)


def test_pytest_step_is_the_tier1_verify_command():
    assert _verify_command() in _run_lines()


def test_install_step_covers_the_test_extra_and_the_dependencies():
    wanted = {_package_name(r) for r in _requirements("test") + _requirements("dependencies")}
    assert {"pytest", "hypothesis", "numpy", "scipy"} <= wanted
    installs = [line.split("pip install", 1)[1].split() for line in _run_lines()
                if "pip install" in line]
    assert len(installs) == 1
    assert wanted <= {_package_name(arg) for arg in installs[0] if not arg.startswith("-")}


def _step(name: str) -> str:
    """The text of the step called ``name``, up to the next step."""
    match = re.search(rf"^\s*- name: {re.escape(name)}\n(.*?)(?=^\s*(?:- |#)|\Z)",
                      WORKFLOW, re.M | re.S)
    assert match is not None, name
    return match.group(1)


def test_run_values_are_plain_yaml_scalars():
    # In a plain scalar ": " starts a mapping and " #" a comment, so either
    # one makes the whole workflow fail to load.
    assert [line for line in _run_lines() if ": " in line or " #" in line] == []


@pytest.mark.parametrize("name,reports", [("Source size", "wc -l src/frechet/*.py"),
                                          ("Cold runs", "python tests/cold_runs.py"),
                                          ("Group build", "tracemalloc")])
def test_summary_step_runs_always(name, reports):
    step = _step(name)
    assert re.search(r"^\s*if: always\(\)$", step, re.M)
    run = re.search(r"^\s*run:\s*(.+)$", step, re.M).group(1)
    assert reports in run and run.endswith('>> "$GITHUB_STEP_SUMMARY"')


def test_the_cli_runs_only_from_the_cold_runs_table():
    # A new cold run is a row of tests/cold_runs.py, not another step.
    assert [line for line in _run_lines() if "frechet.cli" in line or "cli.main" in line] == []
    assert sum("tests/cold_runs.py" in line for line in _run_lines()) == 1


def test_source_size_step_lists_every_module_and_the_total(tmp_path):
    # The step's own command, run as the runner would.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Source size"), re.M).group(1)
    summary = tmp_path / "summary.md"
    subprocess.run(["bash", "-c", run], cwd=ROOT, check=True, timeout=60,
                   env=dict(os.environ, GITHUB_STEP_SUMMARY=str(summary)))
    counts = {name: int(n) for n, name in
              re.findall(r"^\s*(\d+) (\S+)$", summary.read_text(), re.M)}
    modules = {f"src/frechet/{path.name}": path.read_text().count("\n")
               for path in (ROOT / "src" / "frechet").glob("*.py")}
    assert counts == {**modules, "total": sum(modules.values())}


@pytest.mark.parametrize("name", cold_runs.table())
def test_cold_run_row(name):
    # The script for this one row, as the Cold runs step runs it.
    out = subprocess.run([sys.executable, "tests/cold_runs.py", name], cwd=ROOT, env=fresh_env(),
                         capture_output=True, text=True, check=True, timeout=300).stdout
    header, _, line = out.splitlines()
    row = dict(zip(header.strip("| ").split(" | "), line.strip("| ").split(" | "), strict=True))
    _, _, calls, cells = cold_runs.table()[name]
    runtime = {0: "-", 1: r"runtime_seconds = \d+\.\d{4}"}.get(calls,
                                                             r"median call = \d+\.\d{2} ms")
    cells = {"run": re.escape(name), "calls": str(calls), "exits": "0" if calls else "-",
             "writes bytecode": "no" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "yes",
             "frechet modules": r"frechet, frechet\.cli.*", "runtime": runtime, **cells}
    assert {c: row[c] for c in cells if not re.fullmatch(cells[c], row[c])} == {}, row


def test_group_build_step_reports_time_and_peak(tmp_path):
    # The step's own command, run as the runner would, with this
    # interpreter first on PATH.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Group build"), re.M).group(1)
    assert "cyclic_rotation_group, 360" in run and "loop_shape_space, 128, 8" in run
    summary = tmp_path / "summary.md"
    env = dict(os.environ, GITHUB_STEP_SUMMARY=str(summary),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    subprocess.run(["bash", "-c", run], cwd=ROOT, env=env, check=True, timeout=120)
    report = summary.read_text().splitlines()
    assert len(report) == 1, report
    assert re.fullmatch(r"cyclic_rotation_group\(360\) built in \d+\.\d ms, tracemalloc peak = "
                        r"\d+\.\d\d MB; loop_shape_space\(128, 8\) built in \d+\.\d ms, "
                        r"tracemalloc peak = \d+\.\d\d MB", report[0]), report
