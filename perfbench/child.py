"""Run one `fracperc` command in this process and record when it began.

Usage: python3 child.py ROOT TIMING_JSON TRACE(0|1) -- <fracperc arguments>

Imports fracperc from ROOT/src, hooks `fracperc.cli.run` (the harness entry
the CLI calls once its configuration is resolved) to take the clock, runs
`fracperc.cli.main`, and writes {"command_start": perf_counter, "rc": exit
code, "trace": span report or null} to TIMING_JSON.  perf_counter reads
CLOCK_MONOTONIC, so the parent can subtract its own spawn time from it.
"""

import json
import os
import sys
import time


def main(argv):
    root, timing_path, traced = argv[0], argv[1], argv[2] == "1"
    args = argv[argv.index("--") + 1:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fracperc.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"fracperc imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    recorder = None
    if traced:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    marks = {}
    run = cli.run

    def timed_run(cfg, out_dir):
        marks["command_start"] = time.perf_counter()
        return run(cfg, out_dir)

    cli.run = timed_run
    rc = cli.main(args)
    marks["rc"] = rc
    marks["trace"] = recorder.report() if recorder else None
    with open(timing_path, "w") as fh:
        json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
