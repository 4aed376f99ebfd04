"""Check that two independent sets of runs of the same code agree.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]

Runs the command of ``BENCHMARK.json`` ``--runs`` times per workload and
set, each run on its own seed (``--first-seed`` onward, no seed used
twice), untraced.  For every workload and end-to-end metric it prints
each set's median and quartiles and the spread (quartile distance over
the median), and checks what a later comparison relies on:

* every spread, ``setup_s``'s too, stays within the metric's bound;
* each later set's median differs from the first set's, in either
  direction, by at most the bound: a later set that is better by more
  than the bound shows the sets disagree as much as one that is worse;
* the share of failed sessions is the same in every set.

It exits 1 when a check fails.  ``--out`` also writes every run's
figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [
        *command, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-3000:]}"
        )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = [line for line in lines[:-1] if line.startswith(("served", "question gaps"))]
    return result


def drift(first: float, later: float) -> float:
    """How far ``later`` is from ``first``, as a share of ``first``."""
    return abs((later - first) / first)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    metrics = spec["end_to_end"]
    # results[workload][set] -> list of run outputs
    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    seed = args.first_seed
    for set_index in range(args.sets):
        for workload in workloads:
            results[workload].append([])
        for _ in range(args.runs):
            for workload in workloads:
                started = time.perf_counter()
                out = run_once(spec["command"], workload, seed, spec["run_seconds"])
                results[workload][set_index].append({"seed": seed, **out})
                print(
                    f"set {set_index + 1} {workload} seed {seed}: "
                    f"{time.perf_counter() - started:.1f}s "
                    + " ".join(
                        f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                        for m in metrics
                    ),
                    flush=True,
                )
                seed += 1
    ok = True
    print()
    print(
        f"{'workload':<18}{'metric':<20}{'set':>4}{'q1':>11}{'median':>11}"
        f"{'q3':>11}{'spread':>8}{'bound':>7}  verdict"
    )
    for workload in workloads:
        sets = results[workload]
        shares = {
            round(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs), 12)
            for runs in sets
        }
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for set_index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                verdict = []
                if spread > bound:
                    verdict.append("SPREAD OVER BOUND")
                if first_median is None:
                    first_median = q2
                elif drift(first_median, q2) > bound:
                    verdict.append("MEDIAN DRIFT OVER BOUND")
                ok &= not verdict
                print(
                    f"{workload:<18}{name:<20}{set_index + 1:>4}{q1:>11.4g}"
                    f"{q2:>11.4g}{q3:>11.4g}{spread:>8.3f}{bound:>7.2f}  "
                    + (", ".join(verdict) or "ok")
                )
        if len(shares) > 1:
            ok = False
            print(f"{workload}: failed shares differ between sets: {shares}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
