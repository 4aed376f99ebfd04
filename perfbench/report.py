"""Metric names, units, the run tally and the per-layer table.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark
reports, with its unit; ``BENCHMARK.json`` declares the same names.  A
``--trace 0`` run reports every end-to-end metric and a ``--trace 1``
run every per-layer metric.  A layer a workload does not exercise
reports 0.

Per-layer times and counts are per completed session (``s/session``,
``1/session``), so they stay comparable when a faster program completes
more sessions in the same run length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from spans import ROOT_SPANS, SERVER_PREFIX, layer_table, merged_counters

END_TO_END = {
    "sessions_per_s": "1/s",
    "question_p50_ms": "ms",
    "question_p90_ms": "ms",
    "rounds_per_session": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

ENDPOINTS = ("create", "question", "answer", "recommendation")

PER_LAYER = {
    "serve.ticks": "1/session",
    "serve.occupancy": "ratio",
    "serve.score_rows_per_batch": "count",
    "serve.unattributed_s": "s/session",
    "dispatch.worker_busy_s": "s/session",
    "dispatch.shard_skew": "ratio",
    "core.reset_s": "s/session",
    "core.select_s": "s/session",
    "core.observe_s": "s/session",
    "core.recommend_s": "s/session",
    "core.rounds": "1/session",
    "rl.score_s": "s/session",
    "rl.score_batches": "1/session",
    "rl.train_s": "s",
    "geometry.sample_s": "s/session",
    "geometry.sample_calls": "1/session",
    "geometry.range_update_s": "s/session",
    "geometry.range_clips": "1/session",
    "geometry.range_rebuilds": "1/session",
    "geometry.lp_solve_s": "s/session",
    "geometry.lp_solves": "1/session",
    "geometry.lp_linprog_s": "s/session",
    "geometry.lp_cache_hit_rate": "ratio",
    "geometry.lp_stacked_share": "ratio",
    "persist.capture_s": "s/session",
    "persist.put_s": "s/session",
    "persist.checkpoints": "1/session",
    "persist.snapshot_kb": "KB",
    **{f"server.handle_s.{name}": "s/session" for name in ENDPOINTS},
    "server.requests": "1/session",
    "server.transport_s": "s/session",
    "server.boot_s": "s",
    "data.skyline_s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    sessions: int = 0
    sessions_failed: int = 0
    questions: int = 0
    questions_failed: int = 0
    requests: int = 0
    requests_failed: int = 0
    #: Failed sessions whose output broke a correctness check (as opposed
    #: to sessions that errored or were truncated).
    checks_failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail_session(
        self, key: str, reason: str, questions: int, check: bool = False
    ) -> None:
        self.sessions_failed += 1
        self.questions_failed += questions
        self.checks_failed += check
        if len(self.reasons) < 20:
            self.reasons.append(f"session {key}: {reason}")

    def lines(self) -> list[str]:
        return [
            f"attempted: sessions={self.sessions} questions={self.questions} "
            f"http_requests={self.requests}",
            f"failed: sessions={self.sessions_failed} "
            f"questions={self.questions_failed} "
            f"http_requests={self.requests_failed} "
            f"(correctness checks failed: {self.checks_failed})",
            *self.reasons,
        ]


def latency_metrics(gaps: list[float]) -> dict[str, float]:
    """p50 and p90 of the question gaps, in milliseconds."""
    array = np.asarray(gaps, dtype=float) * 1e3
    return {
        "question_p50_ms": float(np.percentile(array, 50)),
        "question_p90_ms": float(np.percentile(array, 90)),
    }


def gap_line(gaps: list[float]) -> str:
    """The question-gap sample count and percentiles, for the run log."""
    array = np.asarray(gaps, dtype=float) * 1e3
    p50, p90, p95, p99 = np.percentile(array, [50, 90, 95, 99])
    return (
        f"question gaps: n={array.size} p50={p50:.3f} p90={p90:.3f} "
        f"p95={p95:.3f} p99={p99:.3f} ms"
    )


def layer_metrics(
    snapshots: list[dict[str, Any]],
    sessions: int,
    extra: dict[str, float],
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics and the raw per-name table of one traced pass.

    ``extra`` supplies what spans do not hold: engine counters, set-up
    timings, dispatcher skew, client-side request time and the tracing
    overhead.
    """
    table = layer_table(snapshots)
    counters = merged_counters(snapshots)
    per = 1.0 / max(sessions, 1)

    def total(name: str) -> float:
        return table.get(name, {}).get("total", 0.0)

    def calls(name: str) -> float:
        return table.get(name, {}).get("count", 0)

    handled = {
        name: row
        for name, row in table.items()
        if name.startswith(SERVER_PREFIX) and name != SERVER_PREFIX + "healthz"
    }
    unattributed = sum(
        row["self"]
        for name, row in table.items()
        if name in ROOT_SPANS or name in handled
    )
    hits = counters.get("lp.cache.hit", 0)
    misses = counters.get("lp.cache.miss", 0)
    stacked = counters.get("lp.stacked", 0)
    direct = counters.get("lp.direct", 0)
    checkpoints = calls("persist.put")
    metrics = {
        "serve.unattributed_s": unattributed * per,
        "dispatch.worker_busy_s": total("dispatch.worker") * per,
        "core.reset_s": total("core.reset") * per,
        "core.select_s": total("core.select") * per,
        "core.observe_s": total("core.observe") * per,
        "core.recommend_s": total("core.recommend") * per,
        "core.rounds": calls("core.observe") * per,
        "rl.score_s": total("rl.score") * per,
        "rl.score_batches": calls("rl.score") * per,
        "geometry.sample_s": total("geometry.sample") * per,
        "geometry.sample_calls": calls("geometry.sample") * per,
        "geometry.range_update_s": total("geometry.range_update") * per,
        "geometry.range_clips": counters.get("range.clips", 0) * per,
        "geometry.range_rebuilds": counters.get("range.rebuilds", 0) * per,
        "geometry.lp_solve_s": total("geometry.lp_solve") * per,
        "geometry.lp_solves": counters.get("geometry.lp_solve", 0) * per,
        "geometry.lp_linprog_s": total("geometry.lp_linprog") * per,
        "geometry.lp_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "geometry.lp_stacked_share": (
            stacked / (stacked + direct) if stacked + direct else 0.0
        ),
        "persist.capture_s": total("persist.capture") * per,
        "persist.put_s": total("persist.put") * per,
        "persist.checkpoints": checkpoints * per,
        "persist.snapshot_kb": (
            counters.get("persist.bytes", 0) / 1024 / checkpoints
            if checkpoints
            else 0.0
        ),
        **{
            f"server.handle_s.{name}": total(SERVER_PREFIX + name) * per
            for name in ENDPOINTS
        },
        "server.requests": sum(row["count"] for row in handled.values()) * per,
    }
    client_s = extra.pop("client_request_s", None)
    if client_s is not None:
        served = sum(row["total"] for row in handled.values())
        metrics["server.transport_s"] = (client_s - served) * per
    metrics.update(extra)
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    return {name: metrics[name] for name in PER_LAYER}, table


def table_lines(
    table: dict[str, dict[str, float]], sessions: int
) -> list[str]:
    """The per-layer table: calls, total and self time per span name."""
    lines = [
        f"{'layer span':<28}{'calls':>10}{'total s':>11}{'self s':>11}"
        f"{'self ms/session':>17}"
    ]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(
            f"{name:<28}{int(row['count']):>10}{row['total']:>11.3f}"
            f"{row['self']:>11.3f}{1e3 * row['self'] / max(sessions, 1):>17.3f}"
        )
    return lines


def result_json(
    correct: bool, tally: Tally, metrics: dict[str, float], units: dict[str, str]
) -> dict[str, Any]:
    return {
        "correct": bool(correct),
        "attempted": int(tally.sessions),
        "failed": int(tally.sessions_failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
