"""Run one spinfock CLI command in a fresh process and report what it cost.

    python3 perfbench/child.py RESULT.json TRACE -- CLI-ARGS...

The command writes to this process's standard output, which the caller
points at a file.  RESULT.json receives the exit code, the seconds from
argument parsing to the last flushed output byte, the peak resident set
and, when TRACE is 1, the raw per-layer counters of tracer.py.
Interpreter start and `import spinfock.cli` happen before the clock starts;
run.py measures them separately as set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE -- CLI-ARGS...")
    argv = sys.argv[4:]

    from spinfock import cli
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()

    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:           # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    sys.stdout.flush()
    run_s = time.perf_counter() - start

    result = {
        "exit": code,
        "run_s": run_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result))        # json.dump may be traced
    return code


if __name__ == "__main__":
    sys.exit(main())
