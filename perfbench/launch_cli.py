"""Run ``dbcat.cli.main`` under the benchmark's tracer.

Usage: ``launch_cli.py TRACE_FILE CLI_ARGS...``.  The command's stdout and
exit status are those of ``python -m dbcat.cli CLI_ARGS...``; the spans go
to TRACE_FILE as JSON.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main() -> int:
    import dbcat.cli

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return dbcat.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
