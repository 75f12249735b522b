"""Layered benchmark of the ``frechet`` command line.

One run of one workload:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's JSON configs are generated from the seed (see
``workloads.py``). One pass is one client calling ``cli.main`` once per
config, in sequence: a closed loop. ``FRECHET_THREADS`` is pinned to 1 and
BLAS/OpenMP threads are capped at the number of usable cores. The run
lasts about S seconds in all.

With ``--trace 0`` the run has two rounds. Each starts three fresh
children that only import ``frechet.cli``, then one fresh child that
imports it and runs passes for half the time left. It reports
``setup_s``, the median import time over the eight children; ``wall_s``,
the sum over the workload's calls of each call's median time over the
timed passes (every pass of a child but its first, which fills caches and
finishes lazy set-up); and ``peak_rss_mb``, the peak RSS over the
children from ``getrusage(RUSAGE_CHILDREN)``. On a shared host the speed
of a core can move by 1.5x or more for seconds at a time, so a run takes
the median of many short passes spread over the whole run rather than a
few long ones.

With ``--trace 1`` four children run passes for a quarter of the time
each, untraced and traced in the order U T T U, so that drift in host
speed falls on both sides; traced children wrap the package from outside
(``layer_trace.py``) and the run reports per-layer counts and self times
as medians over the traced passes, the tracing overhead and the time no
span covers.

Every call's output is checked (``check.py``); a call fails on a nonzero
exit, a failed check, or an output that differs from its first pass. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run context and the host-noise probe taken before and after the run.

Other modes:

    python3 bench/run.py --runs K [--trace 0|1] [--out FILE]
        every workload K times on seeds N..N+K-1, with medians and quartiles
    python3 bench/run.py --compare BASE.json NEW.json
        per workload and end-to-end metric: base, new, ratio, verdict
    python3 bench/run.py --make-references SEEDS [--workload NAME]
        record reference outputs for seeds such as 0-31 from this tree

``bench/baseline.json`` holds ``--runs 10`` at the commit that added the
benchmark and ``bench/baseline-trace.json`` one traced run per workload;
pass the former as BASE to ``--compare``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references"
SCRATCH = ROOT / ".bench_tmp"
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {
    "FRECHET_THREADS": "1",
    "OMP_NUM_THREADS": str(NPROC),
    "OPENBLAS_NUM_THREADS": str(NPROC),
    "MKL_NUM_THREADS": str(NPROC),
}
# Set before numpy loads, so the noise probe runs under the same caps.
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from layer_trace import layer_metrics, metric_units  # noqa: E402

DEFAULT_SECONDS = 55
ROUNDS = 2                # measuring children per untraced run
IMPORTS_PER_ROUND = 3     # import-only children before each measuring child
SPAWN_S = 0.1             # start-up of a child's interpreter, before the import
RUN_LIMIT_S = 170.0       # a child still running at this point is killed


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a result."""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def noise_probe() -> dict:
    """Time a fixed numpy loop and a fixed pure-Python loop (~0.2 s each)."""
    a = np.random.default_rng(0).random((192, 192))
    t0 = time.perf_counter()
    for _ in range(400):
        float(np.sqrt(a @ a).sum())
    numpy_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return {"numpy_s": numpy_s, "python_s": time.perf_counter() - t0}


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "frechet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_context(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        sha = out.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": _src_digest(),
        "seed": seed,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "threads": dict(THREAD_ENV),
    }


def _config_sha(calls: list) -> str:
    return hashlib.sha256(json.dumps(calls, sort_keys=True).encode()).hexdigest()[:16]


def _write_calls(calls: list, workdir: Path) -> None:
    spec_calls = []
    for i, (command, config) in enumerate(calls):
        path = workdir / f"call{i}.config.json"
        path.write_text(json.dumps(config))
        spec_calls.append([command, str(path), str(workdir / f"call{i}")])
    spec = {"src": str(SRC), "calls": spec_calls}
    (workdir / "spec.json").write_text(json.dumps(spec))


def run_child(workdir: Path, index: int, traced: bool, min_passes: int, budget_s: float,
              timeout: float) -> dict:
    """One fresh worker process; returns its report."""
    report = workdir / f"child{index}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(workdir / "spec.json"),
             str(report), "1" if traced else "0", str(min_passes), repr(max(budget_s, 0.0))],
            env=env, cwd=workdir, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {index} exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child {index} exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    child = json.loads(report.read_text())
    child["traced"] = traced
    return child


def load_references(workload: str) -> dict:
    path = REFERENCES / f"{workload}.json"
    return json.loads(path.read_text())["seeds"] if path.exists() else {}


def check_children(calls: list, children: list[dict], ref_entry: dict | None):
    """(attempted, failed, problems) over every call of every pass of every child.

    Each distinct output of a call is checked once; an output that differs
    from the call's first output also fails.
    """
    refs = ref_entry["results"] if ref_entry else [None] * len(calls)
    first: list = [None] * len(calls)
    verdicts: dict[tuple[int, str | None], list[str]] = {}
    attempted = failed = 0
    problems = []
    for child in children:
        for number, done in enumerate(child["passes"]):
            for i, (command, config) in enumerate(calls):
                attempted += 1
                digest = done["digests"][i]
                if (i, digest) not in verdicts:
                    verdicts[i, digest] = check.check_call(
                        command, config, done["results"][str(i)], refs[i])
                found = list(verdicts[i, digest])
                if first[i] is None:
                    first[i] = digest or ""
                elif digest != first[i]:
                    found.append("output differs from the first pass")
                if found:
                    failed += 1
                    problems.append(f"pass {number} call {i} ({command}): " + "; ".join(found))
    return attempted, failed, problems


def _timed(passes: list[dict]) -> list[dict]:
    """The passes that are timed: all but the first, which warms up."""
    return passes[1:] if len(passes) > 1 else passes


def _pass_s(done: dict) -> float:
    return sum(done["call_s"])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    if not (SRC / "frechet" / "cli.py").is_file():
        raise BenchmarkError(f"no frechet package under {SRC}")
    calls = workloads.generate(workload, seed)
    ref_entry = load_references(workload).get(str(seed))
    if ref_entry is not None and ref_entry["config_sha"] != _config_sha(calls):
        raise BenchmarkError(f"references for {workload} seed {seed} were recorded from "
                             "other configs; run --make-references")
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        _write_calls(calls, workdir)
        probe_before = noise_probe()
        start = time.perf_counter()
        children: list[dict] = []

        def launch(traced: bool, min_passes: int, share: float, imports_later: int = 0):
            """Start a child whose passes take ``share`` of the time left over
            after the import-only children still to come."""
            elapsed = time.perf_counter() - start
            setup = statistics.median(c["setup_s"] for c in children) if children else 1.0
            left = seconds - elapsed - imports_later * (setup + SPAWN_S)
            budget = left * share - setup - SPAWN_S
            children.append(run_child(workdir, len(children), traced, min_passes, budget,
                                      RUN_LIMIT_S - elapsed))

        if trace:
            for k in range(4):
                launch(k in (1, 2), 1, 1.0 / (4 - k))
        else:
            for r in range(ROUNDS):
                for _ in range(IMPORTS_PER_ROUND):
                    launch(False, 0, 0.0)
                launch(False, 2, 1.0 / (ROUNDS - r),
                       IMPORTS_PER_ROUND * (ROUNDS - r - 1))
        probe_after = noise_probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = check_children(calls, children, ref_entry)
    plain = [p for c in children if not c["traced"] for p in _timed(c["passes"])]
    setup = [c["setup_s"] for c in children]
    if trace:
        traced = [p for c in children if c["traced"] for p in _timed(c["passes"])]
        per_pass = [layer_metrics(p["trace"]) for p in traced]
        metrics = {name: _metric(statistics.median(m[name] for m in per_pass), unit)
                   for name, unit in metric_units().items() if name in per_pass[0]}
        metrics["trace.overhead"] = _metric(
            statistics.median(map(_pass_s, traced)) / statistics.median(map(_pass_s, plain)),
            "ratio")
        metrics["trace.unattributed_s"] = _metric(
            statistics.median(_pass_s(p) - p["trace"]["top_s"] for p in traced), "s")
    else:
        # Per call, the median over the timed passes; wall_s is their sum.
        wall = sum(statistics.median(p["call_s"][i] for p in plain)
                   for i in range(len(calls)))
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics = {"wall_s": _metric(wall, "s"),
                   "setup_s": _metric(statistics.median(setup), "s"),
                   "peak_rss_mb": _metric(peak, "MB")}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "context": run_context(seed),
        "noise_probe": {"before": probe_before, "after": probe_after},
        "references": ref_entry is not None,
        "children": len(children),
        "passes": sum(len(c["passes"]) for c in children),
        "samples": {"wall_s": [_pass_s(p) for p in plain], "setup_s": setup,
                    "call_s": [p["call_s"] for p in plain]},
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems[:20],
        "metrics": metrics,
    }


def _declared_metrics(trace: bool) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_run(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} children={record['children']} "
          f"passes={record['passes']} "
          f"references={'yes' if record['references'] else 'no'} "
          f"failed_share={record['failed_share']:.4g} ratio "
          f"({record['failed']}/{record['attempted']} calls)")
    samples = record["samples"]
    for name, entry in record["metrics"].items():
        line = f"  {name:48s} {entry['value']:.6g} {entry['unit']}"
        if name in samples and len(samples[name]) > 1:
            q1, _, q3 = _quartiles(samples[name])
            line += f"  (median of {len(samples[name])}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({"context": record["context"], "noise_probe": record["noise_probe"]}))


def single_run(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = _declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(record["metrics"]):
        raise BenchmarkError("metrics differ from those declared in BENCHMARK.json")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print_run(record)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


def all_runs(args) -> int:
    """Every workload ``--runs`` times, each run in its own process."""
    runs: dict[str, list[dict]] = {}
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        for name in workloads.NAMES:
            runs[name] = []
            for k in range(args.runs):
                out = Path(tmp) / f"{name}-{k}.json"
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", name,
                     "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out", str(out)],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    raise BenchmarkError(f"{name} seed {args.seed + k}: {proc.stderr.strip()}")
                runs[name].append(json.loads(out.read_text()))
                print(f"# {name} seed {args.seed + k} done", flush=True)
    summary = {"context": run_context(args.seed), "seconds": args.seconds,
               "trace": args.trace, "runs": runs}
    print_summary(summary)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


def _values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records]


def print_summary(summary: dict) -> None:
    names = list(next(iter(summary["runs"].values()))[0]["metrics"])
    print(f"{'workload':18s} {'metric':48s} {'median':>11s} {'q1':>11s} {'q3':>11s}"
          f" {'runs':>4s} unit")
    for workload, records in summary["runs"].items():
        rows = [(m, _values(records, m), records[0]["metrics"][m]["unit"]) for m in names]
        if not summary["trace"]:
            rows.append(("failed_share", [r["failed_share"] for r in records], "ratio"))
        for metric, values, unit in rows:
            q1, med, q3 = _quartiles(values)
            print(f"{workload:18s} {metric:48s} {med:11.5g} {q1:11.5g} {q3:11.5g}"
                  f" {len(values):4d} {unit}")


def compare(base_path: str, new_path: str) -> int:
    """Base and new medians per workload and end-to-end metric."""
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())
              ["end_to_end"]}
    print(f"{'workload':18s} {'metric':12s} {'base':>11s} {'new':>11s} {'ratio':>7s}"
          f" {'spread':>13s} verdict")
    for workload, base_runs in base["runs"].items():
        new_runs = new["runs"].get(workload)
        if not new_runs:
            print(f"{workload:18s} missing from {new_path}")
            continue
        for metric, spec in bounds.items():
            b_vals, n_vals = _values(base_runs, metric), _values(new_runs, metric)
            bq1, bmed, bq3 = _quartiles(b_vals)
            nq1, nmed, nq3 = _quartiles(n_vals)
            spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
            ratio = nmed / bmed
            worse = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
            every_run_better = (max(n_vals) < min(b_vals) if spec["better"] == "lower"
                                else min(n_vals) > max(b_vals))
            if spread > spec["bound"] and not every_run_better:
                verdict = "unresolved (spread wider than the bound)"
            elif worse > spec["bound"]:
                verdict = f"worse by more than the bound {spec['bound']}"
            else:
                verdict = "within the bound" if worse >= 0 else "better"
            print(f"{workload:18s} {metric:12s} {bmed:11.5g} {nmed:11.5g} {ratio:7.3f}"
                  f" {spread:13.3f} {verdict}  (ratio of new to base {bmed:.5g}"
                  f" {spec['unit']}; runs {len(b_vals)} vs {len(n_vals)})")
        print(f"{workload:18s} failed calls {sum(r['failed'] for r in base_runs)} of "
              f"{sum(r['attempted'] for r in base_runs)} vs "
              f"{sum(r['failed'] for r in new_runs)} of {sum(r['attempted'] for r in new_runs)}")
    return 0


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def make_references(seeds: list[int], names: tuple[str, ...]) -> int:
    """Record the checked part of every call's output for each seed."""
    if not (SRC / "frechet" / "cli.py").is_file():
        raise BenchmarkError(f"no frechet package under {SRC}")
    REFERENCES.mkdir(exist_ok=True)
    SCRATCH.mkdir(exist_ok=True)
    for name in names:
        path = REFERENCES / f"{name}.json"
        stored = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
        for seed in seeds:
            calls = workloads.generate(name, seed)
            workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=SCRATCH))
            try:
                _write_calls(calls, workdir)
                child = run_child(workdir, 0, False, 1, 0.0, RUN_LIMIT_S)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            _, failed, problems = check_children(calls, [child], None)
            if failed:
                raise BenchmarkError(f"{name} seed {seed} fails its checks: {problems}")
            results = child["passes"][0]["results"]
            stored["seeds"][str(seed)] = {
                "config_sha": _config_sha(calls),
                "results": [check.trim(cmd, results[str(i)])
                            for i, (cmd, _) in enumerate(calls)],
            }
            print(f"{name} seed {seed}: recorded", flush=True)
        stored["recorded_from"] = run_context(seeds[0])
        stored["seeds"] = dict(sorted(stored["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per workload when --workload is omitted")
    parser.add_argument("--out", help="write the full record(s) as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--make-references", metavar="SEEDS")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.make_references:
            return make_references(_seed_range(args.make_references),
                                   (args.workload,) if args.workload else workloads.NAMES)
        if args.workload:
            return single_run(args)
        return all_runs(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
