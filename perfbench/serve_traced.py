"""``drbw serve`` with the layer tracer installed, for traced runs.

    python3 -m perfbench.serve_traced STATS_PATH serve [serve options...]

Runs the CLI in this process and, once the server has drained, writes
the tracer's accumulated stats to ``STATS_PATH`` as JSON.
"""

from __future__ import annotations

import json
import sys

import repro.cli

from perfbench.tracer import LayerTracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = LayerTracer()
    tracer.install()
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
