"""One benchmark process: import the CLI, then run one command.

Usage: python3 child.py <report.json> <trace 0|1> [cli args...]

With no CLI args the process stops after set-up (a set-up probe).  The
report holds the ``time.perf_counter()`` reading taken once
``wellcond.cli`` is imported and its parser built; on Linux that clock
is CLOCK_MONOTONIC, shared with the parent, which subtracts its own
reading from before the spawn.  A traced run also stores its spans and
counters there.  The exit code is the CLI's.
"""

import json
import sys
import time


def run() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from wellcond import cli

    cli.build_parser()
    report = {"setup_mark": time.perf_counter()}
    rc = 0
    try:
        if argv:
            main = cli.main
            if trace:
                from spans import ROOT, Recorder

                recorder = Recorder()
                recorder.install()
                main = recorder.wrap(ROOT, main)
                report["spans"], report["counts"] = recorder.spans, recorder.counts
            rc = main(argv)
    except SystemExit as e:
        if e.code is None or isinstance(e.code, int):
            rc = e.code or 0
        else:
            print(e.code, file=sys.stderr)
            rc = 1
    finally:
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run())
