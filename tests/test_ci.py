"""The CI workflow against the documents it must agree with. The workflow
and ``pyproject.toml`` are read as text, so no YAML or TOML parser is needed
on any supported Python."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name,reports", [
    ("Source size", "wc -l src/frechet/*.py"),
    ("Start-up", "import frechet.cli"),
    ("Cold experiment", "frechet.cli.main"),
    ("Cold mean", "frechet.cli.main"),
    ("Warm mean", "cli.main(a)"),
    ("Cold ragged W1D mean", "frechet.cli.main"),
    ("Cold BW mean", "frechet.cli.main"),
    ("Cold support mean", "frechet.cli.main"),
    ("Cold W1D diag", "frechet.cli.main"),
    ("Cold heavy-tail grid SLLN", "frechet.cli.main"),
    ("Group build", "tracemalloc"),
])
def test_summary_step_runs_always(name, reports):
    step = _step(name)
    assert re.search(r"^\s*if: always\(\)$", step, re.M)
    run = re.search(r"^\s*run:\s*(.+)$", step, re.M).group(1)
    assert reports in run and run.endswith('>> "$GITHUB_STEP_SUMMARY"')


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


def test_start_up_step_lists_the_loaded_frechet_modules():
    run = re.search(r"^\s*run:\s*(.+)$", _step("Start-up"), re.M).group(1)
    assert run.startswith("PYTHONPATH=src python -c ") and "sys.modules" in run


def test_cold_experiment_step_reports_no_scipy_for_the_golden_slln(tmp_path):
    # The step's own command, run as the runner would, with this
    # interpreter first on PATH.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Cold experiment"), re.M).group(1)
    assert "test_golden._arguments('slln'" in run and "ru_maxrss" in run
    summary = tmp_path / "summary.md"
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path), GITHUB_STEP_SUMMARY=str(summary),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    subprocess.run(["bash", "-c", run], cwd=ROOT, env=env, check=True, timeout=120)
    report = summary.read_text().splitlines()[-1]
    assert report.startswith("golden slln exit 0, ru_maxrss = ")
    assert report.endswith(" MB, 0 scipy modules loaded")


def test_cold_mean_step_reports_no_numpy_ma_for_a_wasserstein1d_mean(tmp_path):
    # The step's own command, run as the runner would, with this
    # interpreter first on PATH.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Cold mean"), re.M).group(1)
    assert "test_cli.cold_mean_arguments(" in run
    assert "ru_maxrss" in run and "ru_minflt" in run
    summary = tmp_path / "summary.md"
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path), GITHUB_STEP_SUMMARY=str(summary),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    subprocess.run(["bash", "-c", run], cwd=ROOT, env=env, check=True, timeout=120)
    report = summary.read_text().splitlines()[-1]
    assert re.fullmatch(r"W1D mean exit 0, ru_maxrss = [\d.]+ MB, ru_minflt = \d+, "
                        r"0 numpy.ma modules loaded", report), report


def test_cold_support_mean_step_reports_a_mean_over_200_atoms(tmp_path):
    # The step's own command, run as the runner would, with this
    # interpreter first on PATH. More than 128 candidates used to exit 2.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Cold support mean"), re.M).group(1)
    assert "test_cli.cold_support_mean_arguments(" in run
    summary = tmp_path / "summary.md"
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path), GITHUB_STEP_SUMMARY=str(summary),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    subprocess.run(["bash", "-c", run], cwd=ROOT, env=env, check=True, timeout=120)
    report = summary.read_text().splitlines()[-1]
    assert re.fullmatch(r"support mean over 200 atoms exit 0, mean set size = [1-9]\d*, "
                        r"resolution = \d+\.\d+(e-?\d+)?, 0 numpy.ma modules loaded", report), report


def test_warm_mean_step_reruns_one_out(tmp_path):
    # The step's own command, run as the runner would, with this
    # interpreter first on PATH.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Warm mean"), re.M).group(1)
    assert "test_cli.cold_mean_arguments(" in run and "range(20)" in run
    summary = tmp_path / "summary.md"
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path), GITHUB_STEP_SUMMARY=str(summary),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    subprocess.run(["bash", "-c", run], cwd=ROOT, env=env, check=True, timeout=120)
    report = summary.read_text().splitlines()
    assert len(report) == 1, report
    assert re.fullmatch(r"W1D mean x20 into one out, exits \[0\], median call = \d+\.\d{2} ms, "
                        r"last result equals first = True", report[0]), report


def test_cold_ragged_mean_step_reports_the_sidecar_runtime(tmp_path):
    # The step's own command, run as the runner would, with this
    # interpreter first on PATH.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Cold ragged W1D mean"), re.M).group(1)
    assert "test_cli.cold_ragged_mean_arguments(" in run
    assert "runtime_seconds" in run and "ru_maxrss" in run
    summary = tmp_path / "summary.md"
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path), GITHUB_STEP_SUMMARY=str(summary),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    subprocess.run(["bash", "-c", run], cwd=ROOT, env=env, check=True, timeout=120)
    report = summary.read_text().splitlines()[-1]
    assert re.fullmatch(r"ragged W1D mean exit 0, runtime_seconds = \d+\.\d{4}, "
                        r"ru_maxrss = [\d.]+ MB", report), report


def test_cold_bw_mean_step_reports_the_sidecar_runtime(tmp_path):
    # The step's own command, run as the runner would, with this
    # interpreter first on PATH.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Cold BW mean"), re.M).group(1)
    assert "test_cli.cold_bw_mean_arguments(" in run
    assert "runtime_seconds" in run and "ru_maxrss" in run
    summary = tmp_path / "summary.md"
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path), GITHUB_STEP_SUMMARY=str(summary),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    subprocess.run(["bash", "-c", run], cwd=ROOT, env=env, check=True, timeout=120)
    report = summary.read_text().splitlines()[-1]
    assert re.fullmatch(r"BW mean exit 0, runtime_seconds = \d+\.\d{4}, "
                        r"ru_maxrss = [\d.]+ MB", report), report


def test_cold_w1d_diag_step_reports_the_sidecar_runtime_and_verdict(tmp_path):
    # The step's own command, run as the runner would, with this
    # interpreter first on PATH.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Cold W1D diag"), re.M).group(1)
    assert "test_cli.cold_w1d_diag_arguments(" in run
    assert "runtime_seconds" in run and "passed" in run
    summary = tmp_path / "summary.md"
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path), GITHUB_STEP_SUMMARY=str(summary),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    subprocess.run(["bash", "-c", run], cwd=ROOT, env=env, check=True, timeout=120)
    report = summary.read_text().splitlines()[-1]
    assert re.fullmatch(r"W1D diag over 1000 trials exit 0, runtime_seconds = \d+\.\d{4}, "
                        r"passed = True", report), report


def test_cold_heavy_tail_step_reports_the_sidecar_runtime(tmp_path):
    # The step's own command, run as the runner would, with this
    # interpreter first on PATH.
    run = re.search(r"^\s*run:\s*(.+)$", _step("Cold heavy-tail grid SLLN"), re.M).group(1)
    assert "test_cli.cold_heavy_tail_slln_arguments(" in run
    assert "runtime_seconds" in run and "ru_maxrss" in run
    summary = tmp_path / "summary.md"
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path), GITHUB_STEP_SUMMARY=str(summary),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    subprocess.run(["bash", "-c", run], cwd=ROOT, env=env, check=True, timeout=120)
    report = summary.read_text().splitlines()[-1]
    assert re.fullmatch(r"heavy-tail slln exit 0, runtime_seconds = \d+\.\d{4}, "
                        r"ru_maxrss = [\d.]+ MB", report), report


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
