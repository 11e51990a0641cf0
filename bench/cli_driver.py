"""Run one cuspasym CLI command with benchmark spans around the package's
public functions, for the traced cli-mix run.

Usage: python -X importtime cli_driver.py SPANS_OUT <subcommand> <config> [-o DIR]

Imports ``cuspasym`` and ``cuspasym.cli`` as two separate lines of the
import-time report, installs the wrappers, runs ``cuspasym.cli.main`` and
writes the spans to SPANS_OUT when the command ends.  The exit code is the
CLI's.
"""

import sys

import tracing

import cuspasym  # noqa: F401  (timed on its own by -X importtime)
import cuspasym.cli


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return tracer.call("cli.main", cuspasym.cli.main, sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
