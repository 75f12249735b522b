"""The cold runs: the paper's settings through the CLI, each in a fresh
interpreter, one Markdown table row per run. ``python tests/cold_runs.py
[NAME ...]``, with ``src`` on ``PYTHONPATH``, prints the named rows or all.
A new cold run is one more entry of ``table()``; ``tests/test_ci.py`` runs
each row and checks its cells.
"""

import sys
import time

# Nothing else is imported here: ``probe`` runs this file in a fresh
# interpreter and times ``import frechet.cli`` as its first import.

COLUMNS = ("run", "calls", "exits", "import ms", "writes bytecode", "frechet modules", "runtime", "ru_maxrss MB",
           "ru_minflt", "scipy modules", "numpy.ma modules", "result")


def table() -> dict:
    """Each cold run's name -> (command, config, calls, cells), where
    ``cells`` maps columns to the patterns the row's cells must match."""
    from test_cli import (DIAG_W1D, MEAN_BW, MEAN_SUPPORT_200, MEAN_W1D, MEAN_W1D_RAGGED,
                          SLLN_HEAVY_TAIL, START_UP)
    from test_golden import CONFIGS

    support = {"numpy.ma modules": "0",
               "result": r"mean set size = [1-9]\d*, resolution = \d+\.\d+(e-?\d+)?"}
    return {
        "Start-up": (None, None, 0, {"frechet modules": ", ".join(START_UP)}),
        # The golden slln draws its normals without scipy.
        "Cold experiment": ("slln", CONFIGS["slln"], 1, {"scipy modules": "0"}),
        # The quantile kernel groups its rows without np.unique.
        "Cold mean": ("mean", MEAN_W1D, 1, {"numpy.ma modules": "0"}),
        # Reruns into one --out, as the benchmark reruns its calls.
        "Warm mean": ("mean", MEAN_W1D, 20, {"result": ".*, last result equals first = True"}),
        "Cold ragged W1D mean": ("mean", MEAN_W1D_RAGGED, 1, {}),
        "Cold BW mean": ("mean", MEAN_BW, 1, {}),
        # More than 128 candidates used to exit 2.
        "Cold support mean": ("mean", MEAN_SUPPORT_200, 1, support),
        # The base support scheme keeps one kernel row per distinct atom.
        "Cold 2,000-atom support mean": ("mean", {**MEAN_SUPPORT_200, "measure": {"support": [
            [k / 8.0, (k * 37 % 101) / 16.0] for k in range(2000)]}}, 1, support),
        "Cold W1D diag": ("diag", DIAG_W1D, 1, {"result": "passed = True"}),
        "Cold heavy-tail grid SLLN": ("slln", SLLN_HEAVY_TAIL, 1, {})}


def arguments(name: str, workdir) -> list[str]:
    """The CLI argv of the cold run ``name`` into the ``pathlib.Path``
    ``workdir`` (none for Start-up); its last entry is the ``--out``."""
    from test_cli import write_config

    command, config = table()[name][:2]
    return [command, "--config", write_config(workdir, "config.json", config),
            "--out", str(workdir / "out")] if command else []


def probe(calls: int, argv: list[str]) -> None:
    """Print a row's cells after its name, ``main(argv)`` called ``calls``
    times, output discarded. Where the interpreter writes no bytecode
    (``PYTHONDONTWRITEBYTECODE``, ``-B``), ``import ms`` includes compiling
    ``frechet`` on every run. The runtime is the sidecar's (the median call's
    if it repeats); the result shows what the last sidecar has of mean set
    size, ``resolution`` and ``passed``."""
    start = time.perf_counter()
    import frechet.cli
    import_ms = (time.perf_counter() - start) * 1000.0
    import contextlib, io, json, resource

    exits, seconds, results, runtime = [], [], [], "-"
    for _ in range(calls):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            exits.append(frechet.cli.main(argv))
            seconds.append(time.perf_counter() - start)
        if exits[-1] == 0:
            with open(argv[-1] + ".json") as f:
                sidecar = json.load(f)
            runtime = f"runtime_seconds = {sidecar['metadata']['runtime_seconds']:.4f}"
            results.append(sidecar["result"])
    use = resource.getrusage(resource.RUSAGE_SELF)
    loaded = [name.split(".") for name in sys.modules]
    import statistics  # after getrusage, so not in the peak

    last = results[-1] if results else {}
    shown = [f"mean set size = {len(last['mean_set'])}"] if "mean_set" in last else []
    shown += [f"{key} = {last[key]!r}" for key in ("resolution", "passed") if key in last]
    if calls > 1:
        shown.append(f"last result equals first = {len(results) > 1 and last == results[0]}")
        runtime = f"median call = {statistics.median(seconds) * 1000.0:.2f} ms"
    cells = [calls, ", ".join(map(str, sorted(set(exits)))) or "-", f"{import_ms:.0f}",
             "no" if sys.flags.dont_write_bytecode else "yes",
             ", ".join(sorted(".".join(n) for n in loaded if n[0] == "frechet")), runtime,
             f"{use.ru_maxrss / 1024:.1f}", use.ru_minflt, sum(n[0] == "scipy" for n in loaded),
             sum(n[:2] == ["numpy", "ma"] for n in loaded), ", ".join(shown) or "-"]
    print(" | ".join(map(str, cells)) + " |")


def main(names: list[str]) -> int:
    """Print the cold runs ``names`` as a table; nonzero if a probe failed."""
    import subprocess
    import tempfile
    from pathlib import Path

    print("| " + " | ".join(COLUMNS) + " |\n" + "|---" * len(COLUMNS) + "|")
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or table():
            argv = arguments(name, Path(tempfile.mkdtemp(dir=tmp)))
            child = subprocess.run([sys.executable, __file__, "--probe", str(table()[name][2]),
                                    *argv], stdout=subprocess.PIPE, text=True)
            status = status or child.returncode
            print(f"| {name} | {child.stdout.strip() or 'probe failed |'}")
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        probe(int(sys.argv[2]), sys.argv[3:])
    else:
        sys.exit(main(sys.argv[1:]))
