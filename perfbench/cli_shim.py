"""Run ``massflat.cli.main`` under the tracer and save the span aggregates.

Usage: python -X importtime perfbench/cli_shim.py OUT.json <cli args...>

Stdout and the exit code are the CLI's own; the aggregates go to OUT.json.
The tracer is installed before massflat is imported, and imports only the
standard library, so ``-X importtime`` still sees massflat's own imports.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.hook_dijkstra()
    import massflat.cli

    tracer.install()
    tracer.enabled = True
    tracer.op = 0
    try:
        code = massflat.cli.main(argv)
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.raw(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
