"""One fresh benchmark child: import the CLI, run workload passes.

Usage: python3 worker.py SPEC_JSON REPORT_JSON TRACE(0|1) MIN_PASSES BUDGET_S

The spec lists the CLI calls as (subcommand, config path, output prefix)
and the source directory the package must be imported from. The child
times ``import frechet.cli``, then runs the whole list of calls (one pass)
at least MIN_PASSES times, and further passes while one more is expected
to end within BUDGET_S seconds of the import. MIN_PASSES 0 and BUDGET_S 0
make an import-only child.

The report holds the import time and, per pass, the time and exit code of
each ``cli.main`` call and a digest of each call's checked output. The
first pass's outputs are included in full, and so is any later output
whose digest differs from the first. When tracing, each pass also carries
its raw per-layer spans. The CLI's own console lines are discarded.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time


def _read_result(out: str, code: int):
    if code != 0:
        return None
    with open(out + ".json") as fh:
        return json.load(fh)["result"]


def _digest(command: str, result) -> str | None:
    # Imported here, not at the top: check loads numpy, which must not be
    # loaded before the timed import of the CLI.
    import check
    if result is None:
        return None
    text = json.dumps(check.trim(command, result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(spec_path: str, report_path: str, trace: bool, min_passes: int,
         budget_s: float) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import frechet.cli
    setup_s = time.perf_counter() - t0

    source = os.path.realpath(frechet.cli.__file__)
    if not source.startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"frechet was imported from {source}, not from {spec['src']}",
              file=sys.stderr)
        return 3

    tracer = None
    if trace:
        from layer_trace import Tracer
        tracer = Tracer()
        tracer.install()

    passes = []
    start = time.perf_counter()
    with open(os.devnull, "w") as sink:
        while True:
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and (
                    not passes or elapsed + elapsed / len(passes) > budget_s):
                break
            call_s, exit_codes = [], []
            with contextlib.redirect_stdout(sink):
                for command, config, out in spec["calls"]:
                    t0 = time.perf_counter()
                    code = frechet.cli.main([command, "--config", config, "--out", out])
                    call_s.append(time.perf_counter() - t0)
                    exit_codes.append(code)
            record = {"call_s": call_s, "exit_codes": exit_codes, "digests": [],
                      "results": {}}
            for i, ((command, _, out), code) in enumerate(zip(spec["calls"], exit_codes)):
                result = _read_result(out, code)
                digest = _digest(command, result)
                record["digests"].append(digest)
                if not passes or digest != passes[0]["digests"][i]:
                    record["results"][str(i)] = result
            if tracer is not None:
                record["trace"] = tracer.report()
                tracer.reset()
            passes.append(record)

    with open(report_path, "w") as fh:
        json.dump({"setup_s": setup_s, "passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", int(sys.argv[4]),
                  float(sys.argv[5])))
