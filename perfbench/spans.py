"""Layer spans recorded from outside the program.

The benchmark times each layer by wrapping calls into that layer's
functions and methods: :func:`install` swaps each target for a wrapper
that records a span (name, start, end, parent span, session id) in the
memory of the process that ran it, and :func:`uninstall` puts the
originals back.  Nothing inside the program is edited, and an untraced
run never installs a wrapper.

Spans reach the parent from the two kinds of child process the
workloads use:

* the dispatcher's forked workers: an after-fork hook starts a
  ``dispatch.worker`` root span in each worker, and an exit finaliser
  writes the worker's spans to a file the parent collects after the
  wave (:meth:`Recorder.collect_workers`);
* the HTTP server: ``server_traced.py`` installs the wrappers before it
  calls the CLI and writes its spans when the server stops.

:func:`layer_table` turns recorded spans into per-name counts, total
time and self time (a span's duration minus the part its child spans
cover).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Root spans: whatever part of their duration no child span covers is
#: time spent in the serving loop outside every timed layer call.
ROOT_SPANS = ("serve.submit", "serve.drain", "dispatch.worker")
#: Prefix of the server's per-request root spans.
SERVER_PREFIX = "server."


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.role = "main"
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: ``[name_id, start, end, parent, session]`` per span.
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = {}
        #: ``id(session object) -> session key``, set by session factories.
        self.session_of: dict[int, str] = {}
        self.worker_dir: Path | None = None
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, session: str | None = None) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if session is None:
            session = (
                self.spans[parent][4]
                if parent >= 0
                else getattr(self._local, "session", None)
            )
        index = len(self.spans)
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, session])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def session_scope(self, session: str):
        """Attribute root-level spans opened in the block to ``session``."""
        previous = getattr(self._local, "session", None)
        self._local.session = session
        try:
            yield
        finally:
            self._local.session = previous

    def clear(self, role: str) -> None:
        self.role = role
        self.names.clear()
        self._name_ids.clear()
        self.spans.clear()
        self.counters.clear()
        self._local = threading.local()

    def snapshot(self) -> dict[str, Any]:
        """This process's spans and counters as a JSON-able dict."""
        return {
            "pid": os.getpid(),
            "role": self.role,
            "names": list(self.names),
            "spans": list(self.spans),
            "counters": dict(self.counters),
        }

    # -- forked workers ------------------------------------------------------

    def _after_fork(self) -> None:
        """Start a worker's root span; flush its spans when it exits."""
        if not self.enabled or self.worker_dir is None:
            return
        self.clear("worker")
        self.session_of.clear()
        root = self.begin("dispatch.worker")
        multiprocessing.util.Finalize(
            None, self._flush_worker, args=(root,), exitpriority=100
        )

    def _flush_worker(self, root: int) -> None:
        self.end(root)
        assert self.worker_dir is not None
        path = self.worker_dir / f"worker-{os.getpid()}-{time.time_ns()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def collect_workers(self) -> list[dict[str, Any]]:
        """Read and remove the span files of workers that have exited."""
        if self.worker_dir is None:
            return []
        found = []
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            found.append(json.loads(path.read_text()))
            path.unlink()
        return found


# -- wrappers -----------------------------------------------------------------


def _timed(
    rec: Recorder,
    name: str,
    fn: Callable[..., Any],
    session: Callable[[tuple], str | None] | None = None,
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not rec.enabled:
            return fn(*args, **kwargs)
        index = rec.begin(name, session(args) if session else None)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(index)

    return wrapper


def _algorithm_session(rec: Recorder) -> Callable[[tuple], str | None]:
    return lambda args: rec.session_of.get(id(args[0]))


def _make_session(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    timed = _timed(rec, "core.reset", fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        algorithm = timed(*args, **kwargs)
        session = getattr(rec._local, "session", None)
        if rec.enabled and session is not None:
            rec.session_of[id(algorithm)] = session
        return algorithm

    return wrapper


def _counted(
    rec: Recorder, name: str, fn: Callable[..., Any], amount: Callable[..., int]
) -> Callable[..., Any]:
    timed = _timed(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if rec.enabled:
            rec.count(name, amount(*args, **kwargs))
        return timed(*args, **kwargs)

    return wrapper


def _cache_lookup(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(self: Any, key: bytes) -> Any:
        entry = fn(self, key)
        if rec.enabled:
            rec.count("lp.cache.miss" if entry is None else "lp.cache.hit")
        return entry

    return wrapper


def _stacked(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``solve_many_raw``: systems solved in stacked ``linprog`` calls."""

    @functools.wraps(fn)
    def wrapper(self: Any, systems: Any) -> Any:
        systems = list(systems)
        if not rec.enabled:
            return fn(self, systems)
        kind = "lp.stacked" if len(systems) > 1 else "lp.direct"
        rec.count(kind, len(systems))
        rec._local.in_stack = getattr(rec._local, "in_stack", 0) + 1
        try:
            return fn(self, systems)
        finally:
            rec._local.in_stack -= 1

    return wrapper


def _direct(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``solve_raw``: one system per ``linprog`` call (outside a stack)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if rec.enabled and not getattr(rec._local, "in_stack", 0):
            rec.count("lp.direct")
        return fn(*args, **kwargs)

    return wrapper


def _range_call(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Range methods: a span, plus clip/rebuild deltas of the range's stats."""
    timed = _timed(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not rec.enabled or getattr(rec._local, "in_range", False):
            return timed(self, *args, **kwargs)
        stats = self.stats
        clips, rebuilds = stats.clips, stats.rebuilds
        rec._local.in_range = True
        try:
            return timed(self, *args, **kwargs)
        finally:
            rec._local.in_range = False
            stats = self.stats
            rec.count("range.clips", stats.clips - clips)
            rec.count("range.rebuilds", stats.rebuilds - rebuilds)

    return wrapper


def _store_put(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    timed = _timed(rec, "persist.put", fn)

    @functools.wraps(fn)
    def wrapper(self: Any, snapshot: Any) -> Any:
        result = timed(self, snapshot)
        if rec.enabled:
            # FileSessionStore keeps one <id>.npz per session under root.
            path = Path(self.root) / f"{snapshot.session_id}.npz"
            rec.count("persist.bytes", path.stat().st_size)
        return result

    return wrapper


def endpoint(method: str, path: str) -> str:
    """The service endpoint a request addresses."""
    parts = path.rstrip("/").strip("/").split("/")
    if parts == ["healthz"]:
        return "healthz"
    if parts == ["sessions"] and method == "POST":
        return "create"
    if len(parts) == 3 and parts[0] == "sessions":
        return parts[2]
    return "other"


def _handle(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``SessionService.handle``: one root span per request."""

    @functools.wraps(fn)
    async def wrapper(self: Any, request: Any) -> Any:
        if not rec.enabled:
            return await fn(self, request)
        parts = request.path.strip("/").split("/")
        session = parts[1] if len(parts) > 1 else None
        index = rec.begin(
            SERVER_PREFIX + endpoint(request.method, request.path), session
        )
        try:
            return await fn(self, request)
        finally:
            rec.end(index)

    return wrapper


# -- installation ---------------------------------------------------------------


class Patches:
    """The wrappers :func:`install` put in place, for :func:`uninstall`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls: type, name: str, wrap: Callable[[Any], Any]) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def function(self, module: Any, name: str, wrap: Callable[[Any], Any]) -> None:
        """Wrap ``module.name`` in every ``repro`` module that binds it."""
        original = getattr(module, name)
        wrapped = wrap(original)
        holders = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None
            and (mod_name == "repro" or mod_name.startswith("repro."))
            and getattr(mod, name, None) is original
        ]
        for holder in holders:
            self._undo.append((holder, name, original))
            setattr(holder, name, wrapped)

    def undo(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()


def install(rec: Recorder, worker_dir: Path | None = None) -> Patches:
    """Wrap every timed layer entry point; spans go to ``rec``."""
    import repro.data.skyline as skyline
    import repro.geometry.lp as lp
    import repro.geometry.range as ranges
    import repro.geometry.sampling as sampling
    import repro.persist as persist
    import repro.registry as registry
    import repro.server.app as app
    from repro.baselines.uh_base import UHBaseSession
    from repro.core.aa import AAEnvironment
    from repro.core.ea import EAEnvironment
    from repro.core.environment import RLPolicy
    from repro.core.session import InteractiveAlgorithm
    from repro.rl.dqn import DQNAgent
    from repro.serve import ContinuousEngine, ShardedDispatcher

    patches = Patches()
    per_algorithm = _algorithm_session(rec)
    timed = functools.partial(_timed, rec)

    # repro.serve: the scheduler loop's entry points are the roots.
    patches.method(ContinuousEngine, "submit", lambda f: timed("serve.submit", f))
    patches.method(ContinuousEngine, "drain", lambda f: timed("serve.drain", f))
    patches.method(
        ShardedDispatcher, "drain", lambda f: timed("dispatch.drain", f)
    )
    # repro.core: session construction, question selection, answers.
    patches.function(registry, "make_session", lambda f: _make_session(rec, f))
    for name in ("next_question", "next_question_from"):
        patches.method(
            InteractiveAlgorithm,
            name,
            lambda f: timed("core.select", f, per_algorithm),
        )
    # Candidate generation runs inside observe()/reset(); the environments
    # expose no public seam for it, so their _observe hook is timed.
    for env in (EAEnvironment, AAEnvironment):
        patches.method(env, "_observe", lambda f: timed("core.select", f))
    patches.method(
        InteractiveAlgorithm,
        "observe",
        lambda f: timed("core.observe", f, per_algorithm),
    )
    for cls in (RLPolicy, UHBaseSession):
        patches.method(
            cls, "recommend", lambda f: timed("core.recommend", f, per_algorithm)
        )
    # repro.rl: batched Q-scoring.
    patches.method(DQNAgent, "q_values_many", lambda f: timed("rl.score", f))
    # repro.geometry: sampling, range maintenance, LPs.
    patches.function(sampling, "hit_and_run", lambda f: timed("geometry.sample", f))
    patches.function(
        ranges, "prefetch_updates", lambda f: timed("geometry.prefetch", f)
    )
    patches.method(
        ranges.UtilityRange,
        "update",
        lambda f: _range_call(rec, "geometry.range_update", f),
    )
    patches.method(
        ranges.ExactRange,
        "vertices",
        lambda f: _range_call(rec, "geometry.range_vertices", f),
    )
    patches.function(
        lp,
        "solve",
        lambda f: _counted(rec, "geometry.lp_solve", f, lambda *a, **k: 1),
    )
    patches.function(
        lp,
        "solve_many",
        lambda f: _counted(
            rec, "geometry.lp_solve", f, lambda systems, *a, **k: len(systems)
        ),
    )
    patches.function(lp, "linprog", lambda f: timed("geometry.lp_linprog", f))
    patches.method(lp.LPCache, "lookup", lambda f: _cache_lookup(rec, f))
    patches.method(lp.BatchLPBackend, "solve_many_raw", lambda f: _stacked(rec, f))
    patches.method(lp.ScipyHighsBackend, "solve_raw", lambda f: _direct(rec, f))
    # repro.persist: snapshot capture and the file store.
    patches.function(
        persist, "capture_session", lambda f: timed("persist.capture", f)
    )
    patches.method(persist.FileSessionStore, "put", lambda f: _store_put(rec, f))
    # repro.server: one root span per request.
    patches.method(app.SessionService, "handle", lambda f: _handle(rec, f))
    # repro.data: the skyline filter (the server runs it while booting).
    patches.function(
        skyline, "skyline_indices", lambda f: timed("data.skyline", f)
    )
    if worker_dir is not None:
        rec.worker_dir = Path(worker_dir)
        multiprocessing.util.register_after_fork(rec, Recorder._after_fork)
    rec.enabled = True
    return patches


def uninstall(rec: Recorder, patches: Patches) -> None:
    rec.enabled = False
    patches.undo()


# -- aggregation ------------------------------------------------------------------


def layer_table(snapshots: Iterable[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total`` and ``self`` seconds.

    Self time is a span's duration minus its children's durations, so
    summing self time over every name gives the covered wall time once.
    """
    table: dict[str, dict[str, float]] = {}
    for snapshot in snapshots:
        names = snapshot["names"]
        # A span still open when the process stopped has end 0: skip it.
        spans = [
            (name, start, end, parent)
            for name, start, end, parent, _ in snapshot["spans"]
        ]
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0 and end > 0.0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            if end <= 0.0:
                continue
            row = table.setdefault(
                names[name], {"count": 0, "total": 0.0, "self": 0.0}
            )
            row["count"] += 1
            row["total"] += end - start
            row["self"] += end - start - child_time[i]
    return table


def merged_counters(snapshots: Iterable[dict[str, Any]]) -> dict[str, float]:
    counters: dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return counters


def span_total(snapshot: dict[str, Any], name: str) -> float:
    """Summed duration of one process's finished spans called ``name``."""
    names = snapshot["names"]
    return sum(
        end - start
        for name_id, start, end, _, _ in snapshot["spans"]
        if names[name_id] == name and end > 0.0
    )


def write_run(path: Path, snapshots: list[dict[str, Any]]) -> None:
    """Write every process's spans of a traced run to one JSON file."""
    path.write_text(json.dumps(snapshots))
