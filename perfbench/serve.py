"""Run ``repro-experiments serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve.py SPANS_JSON serve --port 0 ...``.
The spans recorded by the server's worker threads are written to
``SPANS_JSON`` when the server shuts down (SIGINT or SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402  (after the path set-up above)


def main(argv) -> int:
    from repro.experiments.cli import main as cli_main

    log = spans.SpanLog()
    spans.install(log)
    try:
        return cli_main(argv[1:])
    finally:
        log.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
