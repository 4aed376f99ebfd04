"""The ``service-local`` and ``http-interactive`` workloads.

Both serve the service's default family ``uh-random`` over a seeded
anti-correlated tuple set (the ea-local spec).  One closed-loop client
is the user: it creates a session, fetches each question, answers it
and fetches the recommendation.

* ``service-local`` builds a :class:`~repro.server.SessionService`
  without a store in this process and hands it each request through
  ``handle``: the service layer with no socket, no second process and
  no disk;
* ``http-interactive`` runs ``python -m repro server --store DIR`` in
  its own process, over the tuples written to a CSV file, and talks to
  it on one keep-alive connection; the server checkpoints a session
  after every answer.

The traced ``service-local`` run installs the span wrappers in this
process; the traced ``http-interactive`` run starts a second server
through ``server_traced.py``, which installs them before it calls the
same CLI.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import Dataset
from repro.errors import PersistenceError
from repro.persist import FileSessionStore
from repro.server import Request, SessionService

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
)

FAMILY = "uh-random"
N, D, EPSILON = 10_000, 4, 0.1
#: Sessions between two checks of the run length.
GROUP = 8
SETUPS = 3
MIN_GAPS = 1000
#: Longest wait for a server to boot or to stop.
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0

HTTP = "http-interactive"
LOCAL = "service-local"

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def write_csv(points: np.ndarray, path: Path) -> None:
    header = ",".join(f"attr_{i}" for i in range(points.shape[1]))
    rows = "\n".join(",".join(repr(float(x)) for x in row) for row in points)
    path.write_text(f"{header}\n{rows}\n")


class Server:
    """One ``repro server`` subprocess on an ephemeral port."""

    def __init__(self, csv: Path, store: Path, spans_path: Path | None = None):
        self.csv = csv
        self.store = store
        self.log = store.with_suffix(".log")
        launcher = (
            [str(HERE / "server_traced.py"), str(spans_path)]
            if spans_path is not None
            else ["-m", "repro"]
        )
        self.argv = [
            sys.executable, "-u", *launcher, "server",
            "--dataset", str(csv), "--port", "0", "--store", str(store),
            "--epsilon", str(EPSILON), "--max-rounds", str(MAX_ROUNDS),
        ]
        self.process: subprocess.Popen[str] | None = None
        self.port = 0
        self.boot_s = 0.0
        #: The server filters the skyline itself; the traced run times it.
        self.skyline_s = 0.0
        self._lines: queue.Queue[str | None] = queue.Queue()

    def start(self) -> None:
        """Spawn the server; return once ``/healthz`` answers."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        started = time.perf_counter()
        with self.log.open("w") as log:
            self.process = subprocess.Popen(
                self.argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        reader = threading.Thread(target=self._read, daemon=True)
        reader.start()
        deadline = started + BOOT_TIMEOUT
        while not self.port:
            try:
                line = self._lines.get(timeout=max(deadline - time.perf_counter(), 0.01))
            except queue.Empty:
                raise RuntimeError("server did not report its port in time") from None
            if line is None:
                raise RuntimeError(
                    f"server exited with {self.process.wait()}: "
                    f"{self.log.read_text()[-2000:]}"
                )
            if line.startswith("serving on "):
                self.port = int(line.strip().rsplit(":", 1)[1])
        client = Client(self.port)
        try:
            while client.call("GET", "/healthz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.01)
        finally:
            client.close()
        self.boot_s = time.perf_counter() - started

    def client(self) -> "Client":
        return Client(self.port)

    def _read(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        assert self.process is not None
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from the server's /proc status")

    def stop(self) -> None:
        """Interrupt the server and wait for it to exit."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.process = None


class Client:
    """A keep-alive JSON client that times every request."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.request_s = 0.0

    def call(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, Any]:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        started = time.perf_counter()
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        self.request_s += time.perf_counter() - started
        return response.status, json.loads(data) if data else None

    def close(self) -> None:
        self.connection.close()


class InProcess:
    """A :class:`SessionService` without a store, in this process."""

    #: No store: checkpoint writes made this workload unsteady on a
    #: shared VM (README, "Why `http-interactive` is not gated").
    store = None

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        self.service: SessionService | None = None
        #: The skyline filter, and from its start until ``/healthz`` answers.
        self.skyline_s = 0.0
        self.boot_s = 0.0

    def start(self) -> None:
        started = time.perf_counter()
        dataset = Dataset(self.points, name="service-local-data").skyline()
        self.skyline_s = time.perf_counter() - started
        self.service = SessionService(
            dataset, epsilon=EPSILON, max_rounds=MAX_ROUNDS
        )
        client = self.client()
        try:
            status, payload = client.call("GET", "/healthz")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"service answered /healthz with {status}: {payload}")
        self.boot_s = time.perf_counter() - started

    def client(self) -> "ServiceClient":
        assert self.service is not None
        return ServiceClient(self.service)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class ServiceClient:
    """:class:`Client`'s interface over ``SessionService.handle``.

    Each request is a :class:`~repro.server.Request` awaited on one
    event loop, and each response body is decoded as the HTTP client
    decodes it, so only the socket and the server's event loop are
    left out.
    """

    def __init__(self, service: SessionService) -> None:
        self.service = service
        self.loop = asyncio.new_event_loop()
        self.request_s = 0.0

    def call(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, Any]:
        payload = b"" if body is None else json.dumps(body).encode()
        started = time.perf_counter()
        request = Request(method, path, body=payload)
        response = self.loop.run_until_complete(self.service.handle(request))
        data = json.loads(response.body) if response.body else None
        self.request_s += time.perf_counter() - started
        return response.status, data

    def close(self) -> None:
        self.loop.close()


@dataclass
class Finished:
    plan: UserPlan
    session_id: str
    answers: int
    #: Rounds the recommendation reports.
    rounds: int
    point: list[float]


class Pass:
    """One client pass over groups of users against one server."""

    def __init__(self, tally: Tally, check: RegretCheck) -> None:
        self.tally = tally
        self.check = check
        self.finished: list[Finished] = []
        self.gaps: list[float] = []
        self.wall = 0.0
        self.request_s = 0.0
        self.groups = 0
        self.completed = 0

    def session(self, client: Client, plan: UserPlan) -> None:
        """Drive one session over HTTP; record it or count its failure."""
        tally = self.tally
        tally.sessions += 1
        user = TimedUser(plan.utility, np.zeros(MAX_ROUNDS))
        body = {"algorithm": FAMILY, "seed": plan.session_seed, "epsilon": EPSILON}
        status, created = self._call(client, "POST", "/sessions", body)
        if status != 201:
            tally.fail_session(plan.key, f"create answered {status}: {created}", 0)
            return
        path = f"/sessions/{created['session_id']}"
        answers = 0
        while True:
            tally.questions += 1
            status, question = self._call(client, "GET", f"{path}/question")
            if status != 200:
                tally.fail_session(plan.key, f"question answered {status}", 1)
                return
            prefers = user.prefers(
                np.asarray(question["p_i"]), np.asarray(question["p_j"])
            )
            status, answered = self._call(
                client, "POST", f"{path}/answer", {"prefers_first": prefers}
            )
            if status != 200:
                tally.fail_session(plan.key, f"answer answered {status}", 1)
                return
            answers += 1
            if answered["finished"]:
                break
        if answers >= MAX_ROUNDS:
            tally.fail_session(plan.key, f"truncated at {answers} rounds", 0)
            return
        status, result = self._call(client, "GET", f"{path}/recommendation")
        if status != 200 or result["status"] != "completed":
            tally.fail_session(plan.key, f"recommendation: {status} {result}", 0)
            return
        self.finished.append(
            Finished(
                plan, created["session_id"], answers, result["rounds"],
                result["point"],
            )
        )
        self.gaps.extend(question_gaps(user.times, answers).tolist())

    def _call(self, client: Client, method: str, path: str, body=None):
        self.tally.requests += 1
        try:
            status, payload = client.call(method, path, body)
        except (OSError, http.client.HTTPException, ValueError) as error:
            status, payload = 0, f"{type(error).__name__}: {error}"
        if not 200 <= status < 300:
            self.tally.requests_failed += 1
        return status, payload

    def verify(self, store: Path | None) -> None:
        """Regret and round checks, made after the timed window.

        With a store the rounds are read back from each checkpoint;
        without one they are the rounds the recommendation reports.
        """
        files = None if store is None else FileSessionStore(store)
        for done in self.finished:
            reason = self.check.failure(done.plan.utility, done.point)
            if reason is None and files is None:
                if done.rounds != done.answers:
                    reason = (
                        f"recommendation reports {done.rounds} rounds, "
                        f"client answered {done.answers}"
                    )
            elif reason is None:
                try:
                    rounds = files.get(done.session_id).rounds
                except PersistenceError as error:
                    reason = f"checkpoint unreadable: {error}"
                else:
                    if rounds != done.answers:
                        reason = (
                            f"checkpoint has {rounds} rounds, "
                            f"client answered {done.answers}"
                        )
            if reason is not None:
                self.tally.fail_session(done.plan.key, reason, 0, check=True)
            else:
                self.completed += 1


def serve(
    host: Server | InProcess,
    streams: SeedStreams,
    tally: Tally,
    check: RegretCheck,
    seconds: float | None,
    groups: int | None = None,
    min_gaps: int = MIN_GAPS,
) -> Pass:
    """Run users group by group until time (or ``groups``) is reached."""
    served = Pass(tally, check)
    client = host.client()
    started = time.perf_counter()
    try:
        while True:
            for plan in streams.sessions(served.groups, GROUP, D):
                served.session(client, plan)
            served.groups += 1
            if groups is not None:
                if served.groups >= groups:
                    break
                continue
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(served.gaps) >= min_gaps:
                break
        served.wall = time.perf_counter() - started
        served.request_s = client.request_s
    finally:
        client.close()
    served.verify(host.store)
    return served


def set_up(
    name: str, streams: SeedStreams, work_dir: Path
) -> tuple[np.ndarray, Server | InProcess, list[float], list[float], list[float]]:
    """Generate data and start a service, ``SETUPS`` times; keep the last.

    Returns the points, the live service, and each set-up's total, boot
    (``/healthz`` answered) and benchmark-side skyline times.
    """
    totals: list[float] = []
    boots: list[float] = []
    skylines: list[float] = []
    host: Server | InProcess | None = None
    for attempt in range(SETUPS):
        if host is not None:
            host.stop()
        started = time.perf_counter()
        points = anti_correlated(N, D, streams.data())
        if name == HTTP:
            csv = work_dir / "data.csv"
            write_csv(points, csv)
            host = Server(csv, work_dir / f"store-{attempt}")
        else:
            host = InProcess(points)
        try:
            host.start()
        except BaseException:
            host.stop()
            raise
        totals.append(time.perf_counter() - started)
        boots.append(host.boot_s)
        skylines.append(host.skyline_s)
    assert host is not None
    return points, host, totals, boots, skylines


def run(
    name: str, seed: int, seconds: float, trace: bool, work_dir: Path
) -> tuple[Tally, dict[str, float], list[str]]:
    """One run of ``service-local`` or ``http-interactive``."""
    streams = SeedStreams(seed, name)
    tally = Tally()
    points, host, setups, boots, skylines = set_up(name, streams, work_dir)
    check = RegretCheck(points, EPSILON, strict=True)
    where = (
        "over HTTP, one keep-alive client, checkpoint per answer"
        if name == HTTP
        else "in process, no store"
    )
    lines = [
        f"{name}: {FAMILY} {where} on anti-correlated n={N} d={D}, "
        f"eps={EPSILON}"
    ]
    traced_server: Server | None = None
    try:
        if not trace:
            served = serve(host, streams, tally, check, seconds)
            metrics = {
                "sessions_per_s": served.completed / served.wall,
                **latency_metrics(served.gaps),
                "rounds_per_session": float(
                    np.mean([done.answers for done in served.finished])
                ),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": host.peak_rss_mb(),
            }
            lines.append(gap_line(served.gaps))
            lines.append(
                f"served {served.completed} sessions in {served.wall:.2f}s, "
                f"{len(served.gaps)} question gaps, max regret "
                f"{check.max_regret:.4g} (limit {check.limit:.4g})"
            )
            return tally, metrics, lines
        # Traced run: untraced, traced, traced, untraced passes over the
        # same users.  Over HTTP the traced passes go to a second server
        # started with the wrappers installed.
        plain = [serve(host, streams, tally, check, seconds / 4, min_gaps=0)]
        groups = plain[0].groups
        if name == HTTP:
            spans_path = work_dir / "server-spans.json"
            assert isinstance(host, Server)
            traced_server = Server(host.csv, work_dir / "store-traced", spans_path)
            traced_server.start()
            traced = [
                serve(traced_server, streams, tally, check, None, groups)
                for _ in range(2)
            ]
            traced_server.stop()
            snapshot = json.loads(spans_path.read_text())
            skyline_s = spans.span_total(snapshot, "data.skyline")
        else:
            rec = spans.Recorder()
            patches = spans.install(rec)
            try:
                traced = [
                    serve(host, streams, tally, check, None, groups)
                    for _ in range(2)
                ]
            finally:
                spans.uninstall(rec, patches)
            snapshot = rec.snapshot()
            skyline_s = statistics.median(skylines)
        plain.append(serve(host, streams, tally, check, None, groups))
    finally:
        host.stop()
        if traced_server is not None:
            traced_server.stop()
    completed = sum(p.completed for p in traced)
    traced_wall = sum(p.wall for p in traced)
    plain_wall = sum(p.wall for p in plain)
    extra = {
        "client_request_s": sum(p.request_s for p in traced),
        "server.boot_s": statistics.median(boots),
        "data.skyline_s": skyline_s,
        "trace.overhead": traced_wall / plain_wall - 1.0,
    }
    metrics, table = layer_metrics([snapshot], completed, extra)
    spans.write_run(work_dir.parent / f"spans-{name}.json", [snapshot])
    lines.append(
        f"traced passes: {completed} sessions in {traced_wall:.2f}s; "
        f"untraced passes: {sum(p.completed for p in plain)} sessions "
        f"in {plain_wall:.2f}s"
    )
    lines.extend(table_lines(table, completed))
    return tally, metrics, lines
