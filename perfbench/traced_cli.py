"""Run one farey_brocot CLI request under the outside-in tracer.

    PYTHONPATH=src python perfbench/traced_cli.py TRACE_OUT CLI_ARG...

Prints the request's payload exactly as the CLI would and writes the
spans and counters to TRACE_OUT as JSON.  Exits with the CLI's code.
"""

from __future__ import annotations

import sys

import tracer


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    rec = tracer.Recorder()
    tracer.install(rec)
    from farey_brocot import cli

    t0 = tracer.now()
    code = cli.main(cli_args)
    sys.stdout.flush()
    rec.dump(out, tracer.now() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
