"""The ``ea-local`` and ``aa-sharded`` workloads.

Both train one agent on a seeded anti-correlated tuple set and serve
truthful users through a runtime the benchmark builds itself, with every
program tracer off:

* ``ea-local`` streams EA sessions into one in-process
  :class:`~repro.serve.ContinuousEngine`; ``submit`` backpressure keeps
  the in-flight set full until the run length is reached;
* ``aa-sharded`` serves AA sessions in waves through a
  :class:`~repro.serve.ShardedDispatcher` with two forked workers.  The
  users stamp their questions into shared memory, so the parent sees the
  stamps made in the workers.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.sharedctypes import RawArray
from pathlib import Path
from typing import Any

import numpy as np

import repro.registry
from repro import Dataset, make_config, make_trainer
from repro.serve import ContinuousEngine, SessionSpec, ShardedDispatcher

import spans
from report import Tally, gap_line, latency_metrics, layer_metrics, table_lines
from seeded import (
    MAX_ROUNDS,
    RegretCheck,
    SeedStreams,
    TimedUser,
    UserPlan,
    anti_correlated,
    question_gaps,
    simplex_points,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run keeps serving until it has at least this many question gaps: a
#: hundred lie beyond the reported 90th percentile and ten beyond the
#: 99th, which the run log prints.
MIN_GAPS = 1000


@dataclass(frozen=True)
class LocalWorkload:
    name: str
    family: str
    n: int
    d: int
    epsilon: float
    episodes: int
    #: In-flight cap (per worker under the dispatcher).
    cap: int
    #: Dispatcher worker processes; 0 serves in this process.
    procs: int
    #: Users per group: one engine drain or one dispatcher wave.
    group: int

    def regret_check(self, points: np.ndarray) -> RegretCheck:
        if self.family == "ea":
            # Lemma 6: EA stops only on an epsilon-dominating tuple.
            return RegretCheck(points, self.epsilon, strict=True)
        # Lemma 9: AA's recommendation has regret at most d^2 * epsilon.
        # At d=8 that limit (6.4) is above any regret ratio (at most 1),
        # so for AA only the non-domination part of the check can fail.
        return RegretCheck(points, self.d**2 * self.epsilon, strict=False)


EA_LOCAL = LocalWorkload(
    name="ea-local", family="ea", n=10_000, d=4, epsilon=0.1,
    episodes=8, cap=4, procs=0, group=32,
)
AA_SHARDED = LocalWorkload(
    name="aa-sharded", family="aa", n=3_000, d=8, epsilon=0.1,
    episodes=4, cap=4, procs=2, group=32,
)


@dataclass
class Setup:
    points: np.ndarray
    dataset: Dataset
    agent: Any
    setup_s: float
    skyline_s: float
    train_s: float


def set_up(work: LocalWorkload, streams: SeedStreams) -> Setup:
    """Generate data, filter the skyline and train, ``SETUPS`` times."""
    totals, skylines, trainings = [], [], []
    for _ in range(SETUPS):
        started = time.perf_counter()
        points = anti_correlated(work.n, work.d, streams.data())
        filtering = time.perf_counter()
        dataset = Dataset(points, name=f"{work.name}-data").skyline()
        training = time.perf_counter()
        rng = streams.train()
        utilities = simplex_points(work.d, work.episodes, rng)
        agent = make_trainer(work.family)(
            dataset,
            utilities,
            config=make_config(work.family, epsilon=work.epsilon),
            rng=int(rng.integers(2**62)),
        )
        done = time.perf_counter()
        totals.append(done - started)
        skylines.append(training - filtering)
        trainings.append(done - training)
    return Setup(
        points,
        dataset,
        agent,
        statistics.median(totals),
        statistics.median(skylines),
        statistics.median(trainings),
    )


class Pass:
    """One serving pass: sessions, checks, question gaps and engine counters."""

    def __init__(self, work: LocalWorkload, setup: Setup, tally: Tally) -> None:
        self.work = work
        self.setup = setup
        self.tally = tally
        self.check = work.regret_check(setup.points)
        self.gaps: list[float] = []
        self.rounds: list[int] = []
        self.completed = 0
        self.wall = 0.0
        self.groups = 0
        #: Scheduler ticks, scored rows and scoring batches served.
        self.ticks = self.rows = self.batches = 0
        #: Span snapshots of the dispatcher's workers (traced passes).
        self.workers: list[dict[str, Any]] = []
        #: Slowest worker's busy time over the mean, per wave.
        self.skews: list[float] = []

    def users(self, streams: SeedStreams) -> list[UserPlan]:
        """The next group's users."""
        return streams.sessions(self.groups, self.work.group, self.work.d)

    def add_engine_metrics(self, metrics: Any) -> None:
        self.ticks += metrics.ticks
        self.rows += metrics.batched_rows
        self.batches += metrics.batches

    def spec(
        self, plan: UserPlan, times: np.ndarray, rec: spans.Recorder | None
    ) -> tuple[SessionSpec, TimedUser]:
        work, setup = self.work, self.setup

        def build():
            scope = rec.session_scope(plan.key) if rec else nullcontext()
            with scope:
                return repro.registry.make_session(
                    work.family, setup.dataset, work.epsilon,
                    rng=plan.session_seed, agent=setup.agent,
                )

        user = TimedUser(plan.utility, times)
        spec = SessionSpec(
            factory=build, user=user, seed=plan.session_seed,
            tags={"session_id": plan.key},
        )
        return spec, user

    def judge(self, plan: UserPlan, result: Any, times: np.ndarray) -> None:
        """Check one result; count it as completed or failed."""
        tally = self.tally
        tally.sessions += 1
        asked = int(np.count_nonzero(times))
        tally.questions += asked
        if result.status != "completed":
            tally.fail_session(
                plan.key, f"status {result.status}: {result.error}", asked
            )
            return
        if asked != result.rounds:
            tally.fail_session(
                plan.key,
                f"{asked} questions asked, {result.rounds} rounds",
                asked,
                check=True,
            )
            return
        reason = self.check.failure(plan.utility, result.recommendation)
        if reason is not None:
            tally.fail_session(plan.key, reason, asked, check=True)
            return
        self.completed += 1
        self.rounds.append(result.rounds)
        self.gaps.extend(question_gaps(times, result.rounds).tolist())

    def done(self, started: float, seconds: float | None, groups: int | None,
             gaps: int, min_gaps: int) -> bool:
        """Whether the pass has served enough groups of users."""
        if groups is not None:
            return self.groups >= groups
        elapsed = time.perf_counter() - started
        return elapsed >= seconds and gaps >= min_gaps


def serve_local(
    work: LocalWorkload,
    setup: Setup,
    streams: SeedStreams,
    tally: Tally,
    seconds: float | None,
    groups: int | None = None,
    rec: spans.Recorder | None = None,
    min_gaps: int = MIN_GAPS,
) -> Pass:
    """Stream groups of users into one engine until time (or ``groups``).

    ``submit`` backpressure (``max_pending`` = the in-flight cap) keeps
    the in-flight set full, so every tick serves a full batch until the
    final drain.
    """
    served = Pass(work, setup, tally)
    submitted: list[tuple[UserPlan, TimedUser]] = []
    started = time.perf_counter()
    with ContinuousEngine(
        max_rounds=MAX_ROUNDS,
        max_in_flight=work.cap,
        max_pending=work.cap,
    ) as engine:
        while True:
            for plan in served.users(streams):
                spec, user = served.spec(plan, np.zeros(MAX_ROUNDS), rec)
                engine.submit(spec)
                submitted.append((plan, user))
            served.groups += 1
            asked = sum(user.asked for _, user in submitted) - len(submitted)
            if served.done(started, seconds, groups, asked, min_gaps):
                break
        results = engine.drain()
        served.wall = time.perf_counter() - started
        served.add_engine_metrics(engine.last_metrics)
    for (plan, user), result in zip(submitted, results, strict=True):
        served.judge(plan, result, user.times)
    return served


def serve_sharded(
    work: LocalWorkload,
    setup: Setup,
    streams: SeedStreams,
    tally: Tally,
    seconds: float | None,
    groups: int | None = None,
    rec: spans.Recorder | None = None,
    min_gaps: int = MIN_GAPS,
) -> Pass:
    """Serve waves of users through the dispatcher until time (or ``groups``)."""
    served = Pass(work, setup, tally)
    shared = RawArray("d", work.group * MAX_ROUNDS)
    stamps = np.frombuffer(shared, dtype=np.float64).reshape(work.group, MAX_ROUNDS)
    started = time.perf_counter()
    with ShardedDispatcher(
        procs=work.procs,
        max_rounds=MAX_ROUNDS,
        max_in_flight=work.cap,
        agents={work.family: setup.agent},
        dataset=setup.dataset,
        collect_obs=False,
    ) as dispatcher:
        while True:
            stamps[:] = 0.0
            plans = served.users(streams)
            for i, plan in enumerate(plans):
                spec, _ = served.spec(plan, stamps[i], rec)
                dispatcher.submit(spec)
            results = dispatcher.drain()
            for i, (plan, result) in enumerate(zip(plans, results, strict=True)):
                served.judge(plan, result, stamps[i].copy())
            if rec is not None:
                wave = rec.collect_workers()
                served.workers.extend(wave)
                busy = [spans.span_total(s, "dispatch.worker") for s in wave]
                if busy:
                    served.skews.append(max(busy) / (sum(busy) / len(busy)))
            served.groups += 1
            if served.done(started, seconds, groups, len(served.gaps), min_gaps):
                break
        served.wall = time.perf_counter() - started
        served.add_engine_metrics(dispatcher.last_metrics)
    return served


def peak_rss_mb(work: LocalWorkload) -> float:
    """Peak resident memory of the serving processes, in MB."""
    who = resource.RUSAGE_CHILDREN if work.procs else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(
    work: LocalWorkload, seed: int, seconds: float, trace: bool, work_dir: Path
) -> tuple[Tally, dict[str, float], list[str]]:
    """One benchmark run: returns the tally, the metrics and report lines."""
    streams = SeedStreams(seed, work.name)
    setup = set_up(work, streams)
    serve = serve_sharded if work.procs else serve_local
    tally = Tally()
    lines = [
        f"{work.name}: {work.family} on anti-correlated n={work.n} d={work.d} "
        f"(skyline {setup.dataset.n}), eps={work.epsilon}, cap={work.cap}, "
        f"procs={work.procs}, group={work.group}"
    ]
    if not trace:
        served = serve(work, setup, streams, tally, seconds)
        metrics = {
            "sessions_per_s": served.completed / served.wall,
            **latency_metrics(served.gaps),
            "rounds_per_session": float(np.mean(served.rounds)),
            "setup_s": setup.setup_s,
            "peak_rss_mb": peak_rss_mb(work),
        }
        lines.append(gap_line(served.gaps))
        lines.append(
            f"served {served.completed} sessions in {served.wall:.2f}s, "
            f"{len(served.gaps)} question gaps, max regret "
            f"{served.check.max_regret:.4g} (limit {served.check.limit:.4g})"
        )
        return tally, metrics, lines
    # Traced run: untraced, traced, traced, untraced passes over the same
    # users; the order cancels a steady drift in machine speed.
    plain = [serve(work, setup, streams, tally, seconds / 4, min_gaps=0)]
    groups = plain[0].groups
    rec = spans.Recorder()
    patches = spans.install(rec, worker_dir=work_dir)
    try:
        traced = [
            serve(work, setup, streams, tally, None, groups=groups, rec=rec)
            for _ in range(2)
        ]
    finally:
        spans.uninstall(rec, patches)
    plain.append(serve(work, setup, streams, tally, None, groups=groups))
    snapshots = [rec.snapshot()] + [s for p in traced for s in p.workers]
    skews = [skew for p in traced for skew in p.skews]
    ticks = sum(p.ticks for p in traced)
    rows = sum(p.rows for p in traced)
    batches = sum(p.batches for p in traced)
    completed = sum(p.completed for p in traced)
    traced_wall = sum(p.wall for p in traced)
    plain_wall = sum(p.wall for p in plain)
    extra = {
        "serve.ticks": ticks / max(completed, 1),
        "serve.occupancy": rows / (ticks * work.cap) if ticks else 0.0,
        "serve.score_rows_per_batch": rows / batches if batches else 0.0,
        "dispatch.shard_skew": float(np.mean(skews)) if skews else 0.0,
        "rl.train_s": setup.train_s,
        "data.skyline_s": setup.skyline_s,
        "trace.overhead": traced_wall / plain_wall - 1.0,
    }
    metrics, table = layer_metrics(snapshots, completed, extra)
    spans.write_run(work_dir.parent / f"spans-{work.name}.json", snapshots)
    lines.append(
        f"traced passes: {completed} sessions in {traced_wall:.2f}s; "
        f"untraced passes: {sum(p.completed for p in plain)} sessions "
        f"in {plain_wall:.2f}s"
    )
    lines.extend(table_lines(table, completed))
    return tally, metrics, lines
