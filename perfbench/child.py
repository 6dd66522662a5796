"""One CLI command in a fresh interpreter, as the `rfvlc` console script runs it.

Usage: python child.py STAMP_FILE [--trace TRACE_FILE] -- CLI_ARGS...

Runs `rfvlc.cli.main(CLI_ARGS)` and exits with its code.  Writes two
lines to STAMP_FILE: `time.monotonic()` at the moment `import rfvlc.cli`
had finished (the parent subtracts its own spawn time to get the set-up
time), and this process's peak resident set in KiB.  The peak comes from
VmHWM, not from the parent's rusage, because a child's ru_maxrss also
counts the parent's pages it was spawned from.  With --trace, the boundary
tracer is installed first and its summary, with the wall time of `main`,
is written to TRACE_FILE as JSON.
"""
import os
import sys
import time

import rfvlc.cli

IMPORTED_AT = time.monotonic()


def main():
    sep = sys.argv.index("--")
    opts, cli_args = sys.argv[1:sep], sys.argv[sep + 1:]
    stamp_file, trace_file = opts[0], None
    if opts[1:2] == ["--trace"]:
        trace_file = opts[2]

    src = os.environ["PERFBENCH_SRC"]
    if os.path.commonpath([os.path.realpath(rfvlc.__file__), src]) != src:
        print(f"rfvlc imported from {rfvlc.__file__}, outside {src}", file=sys.stderr)
        return 70
    if trace_file is None:
        code = rfvlc.cli.main(cli_args)
    else:
        code = traced_main(cli_args, trace_file)
    with open(stamp_file, "w", encoding="utf-8") as fh:
        fh.write(f"{IMPORTED_AT!r}\n{peak_rss_kib()}\n")
    return code


def traced_main(cli_args, trace_file):
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = rfvlc.cli.main(cli_args)
    wall = time.perf_counter() - start
    result = tracer.summary()
    result["main_wall_s"] = wall
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


def peak_rss_kib():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
