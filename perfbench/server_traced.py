"""Start ``repro server`` with the benchmark's span wrappers installed.

Usage: ``python server_traced.py SPANS_JSON server --dataset ... [...]``.
Everything after the spans path is handed to the ``repro`` CLI.  When
the server stops (SIGINT), this process's spans are written to
``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from repro import cli  # noqa: E402


def main(argv: list[str]) -> int:
    target = Path(argv[0])
    rec = spans.Recorder()
    rec.role = "server"
    spans.install(rec)
    try:
        return cli.main(argv[1:])
    finally:
        rec.enabled = False
        target.write_text(json.dumps(rec.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
