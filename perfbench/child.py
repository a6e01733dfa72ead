"""One benchmark command in a fresh interpreter.

    python3 perfbench/child.py probe '{}'
    python3 perfbench/child.py verify '{"max_size": 6, "max_vars": 5, "workers": 1, "seed": 2718, "trace": 0}'
    python3 perfbench/child.py query '{"argv": ["count-svt", "--shape", "2,1", "--vars", "3"], "trace": 0}'

The child imports grothtab.cli, as the `grothtab` command does, and then
runs one command: nothing (probe), run_all on a grid (verify), or
grothtab.cli.main(argv) (query).  A query's stdout is the command's own
output.  The timings (the import, and the call as a [start, end] pair and
as its length), the verify report and, when traced, the spans go to stderr
as the last line, prefixed with RESULT_PREFIX.  Clock readings are
time.monotonic(), which on Linux is CLOCK_MONOTONIC and so comparable with
the parent's readings.
"""

import json
import sys
import time

RESULT_PREFIX = "perfbench-result "


def main() -> int:
    before_import = time.monotonic()
    import grothtab.cli
    ready = time.monotonic()

    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    result = {"ready": ready, "import_s": ready - before_import}
    tracer = None
    if spec.get("trace"):
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    code = 0
    if mode == "verify":
        from grothtab import identities
        grid = identities.Grid(max_size=spec["max_size"], max_vars=spec["max_vars"],
                               seed=spec["seed"])
        start = time.monotonic()
        report = identities.run_all(grid, workers=spec["workers"])
        result["call"] = [start, time.monotonic()]
        result["report"] = report.to_json()
        result["check_s"] = {c.id: c.seconds for c in report.checks}
    elif mode == "query":
        start = time.monotonic()
        try:
            if tracer:
                code = tracer.call("cli.main", grothtab.cli.main, spec["argv"])
            else:
                code = grothtab.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()
        result["call"] = [start, time.monotonic()]
    elif mode != "probe":
        raise SystemExit(f"unknown mode {mode!r}")

    if "call" in result:
        result["call_s"] = result["call"][1] - result["call"][0]
    if tracer:
        result["spans"] = tracer.dump()
    sys.stderr.write(RESULT_PREFIX + json.dumps(result) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
