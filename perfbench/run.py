"""One serving benchmark: ea-local, aa-sharded, service-local, http-interactive.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ea-local --seed 1 --seconds 25 --trace 0

``--trace 0`` serves with every tracer off and reports the end-to-end
metrics; ``--trace 1`` runs an untraced pass and then the same users
with the benchmark's span wrappers installed, prints the per-layer
table and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (in
sessions) and ``metrics``.

The program is reached only through its public entry points and is fed
only the inputs generated here from ``--seed``.  Scratch files go to
``perfbench/.work/``; a traced run leaves its spans in
``perfbench/.work/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ea-local", "aa-sharded", "service-local", "http-interactive")


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    # A shell without job control starts background commands with SIGINT
    # ignored, and that disposition would pass to the server this run
    # starts and stops with SIGINT.  A Python-level handler is reset to
    # the default across exec, so the server gets its usual handler.
    # SIGTERM unwinds this process so that it stops what it started.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import interactive
    import local
    from report import END_TO_END, PER_LAYER, result_json

    work_dir = HERE / ".work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in (interactive.LOCAL, interactive.HTTP):
            tally, metrics, lines = interactive.run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                work_dir,
            )
        else:
            work = {"ea-local": local.EA_LOCAL, "aa-sharded": local.AA_SHARDED}
            tally, metrics, lines = local.run(
                work[args.workload], args.seed, args.seconds, bool(args.trace),
                work_dir,
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for line in [*lines, *tally.lines()]:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = result_json(tally.checks_failed == 0, tally, metrics, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
