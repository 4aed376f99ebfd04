"""Seeded inputs, truthful users and the correctness checks of the benchmark.

Everything the program is fed is made here from the run's ``--seed``:
the anti-correlated tuple set, the agent's training utilities, the hidden
utility of every simulated user and every session's own seed.  The
program receives only these generated arrays.

The checks are computed apart from the program, with NumPy over the full
generated tuple set (taken before the skyline filter).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

#: Per-session round cap handed to the engines and the server.  A session
#: that reaches it is truncated and counts as failed.
MAX_ROUNDS = 200

#: Row-match tolerance when mapping a recommended point back to the
#: generated tuple set (the server re-normalises its CSV input, which can
#: move coordinates by a few ulps).
POINT_TOLERANCE = 1e-9


def anti_correlated(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """``(n, d)`` anti-correlated tuples in ``[0.01, 1]``.

    The classic skyline-benchmark recipe: each point sits near the plane
    ``sum(x) = d * level`` with zero-sum jitter, so being good on one
    attribute costs on the others and skylines are large.
    """
    level = rng.normal(0.5, 0.05, size=(n, 1))
    jitter = rng.normal(0.0, 0.25, size=(n, d))
    jitter -= jitter.mean(axis=1, keepdims=True)
    return np.clip(level + jitter, 0.01, 1.0)


def simplex_points(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``(count, d)`` utility vectors uniform on the simplex."""
    return rng.dirichlet(np.ones(d), size=count)


class SeedStreams:
    """Independent random streams for one run, all derived from ``--seed``.

    ``data`` and ``train`` feed set-up; ``sessions(batch)`` gives the
    hidden utilities and session seeds of one batch of users, so the
    same seed and batch number always yield the same users.
    """

    def __init__(self, seed: int, workload: str) -> None:
        self._entropy = [int(seed), *(ord(ch) for ch in workload)]

    def _stream(self, *key: int) -> np.random.Generator:
        sequence = np.random.SeedSequence(self._entropy, spawn_key=key)
        return np.random.default_rng(sequence)

    def data(self) -> np.random.Generator:
        return self._stream(0)

    def train(self) -> np.random.Generator:
        return self._stream(1)

    def sessions(self, batch: int, count: int, d: int) -> list["UserPlan"]:
        """The users of batch ``batch``: utility plus session seed each."""
        rng = self._stream(2, batch)
        utilities = simplex_points(d, count, rng)
        seeds = rng.integers(0, 2**62, size=count)
        return [
            UserPlan(
                key=f"b{batch}-{i}",
                utility=utilities[i],
                session_seed=int(seeds[i]),
            )
            for i in range(count)
        ]


@dataclass(frozen=True)
class UserPlan:
    """One simulated user: its id, hidden utility and session seed."""

    key: str
    utility: np.ndarray
    session_seed: int


class TimedUser:
    """A truthful user with a hidden linear utility.

    Every ``prefers`` call stamps the clock into ``times`` (a NumPy view
    that may live in shared memory, so stamps made in a forked worker
    are visible to the parent).  The gap between consecutive stamps is
    the time from this user's answer to its next question.
    """

    def __init__(self, utility: np.ndarray, times: np.ndarray) -> None:
        self.utility = np.asarray(utility, dtype=float)
        self.times = times
        self.asked = 0

    def prefers(self, p_i: np.ndarray, p_j: np.ndarray) -> bool:
        if self.asked < self.times.shape[0]:
            self.times[self.asked] = time.perf_counter()
        self.asked += 1
        u = self.utility
        return float(u @ np.asarray(p_i)) >= float(u @ np.asarray(p_j))


def question_gaps(times: np.ndarray, rounds: int) -> np.ndarray:
    """Gaps between a user's consecutive questions, in seconds."""
    stamps = times[: min(rounds, times.shape[0])]
    return np.diff(stamps)


@dataclass
class RegretCheck:
    """Checks a recommendation against the full generated tuple set.

    The point must be a generated tuple that no generated tuple
    dominates (every family recommends a skyline tuple), and its regret
    ratio under the user's hidden utility must stay below (``strict``)
    or at ``limit``.  ``max_regret`` is the largest regret seen.
    """

    points: np.ndarray
    limit: float
    strict: bool
    max_regret: float = 0.0
    checked: int = 0

    def failure(self, utility: np.ndarray, point: np.ndarray) -> str | None:
        """``None`` when ``point`` passes, else the reason it fails."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.points.shape[1],):
            return f"recommendation has shape {point.shape}"
        distance = np.abs(self.points - point).max(axis=1).min()
        if distance > POINT_TOLERANCE:
            return f"recommendation is not a generated tuple ({distance:.3g} away)"
        at_least = self.points >= point - POINT_TOLERANCE
        above = self.points > point + POINT_TOLERANCE
        dominated = int(np.count_nonzero(at_least.all(axis=1) & above.any(axis=1)))
        if dominated:
            return f"recommendation is dominated by {dominated} generated tuples"
        scores = self.points @ utility
        best = float(scores.max())
        regret = (best - float(point @ utility)) / best
        self.checked += 1
        self.max_regret = max(self.max_regret, regret)
        ok = regret < self.limit if self.strict else regret <= self.limit
        if not ok:
            relation = "<" if self.strict else "<="
            return f"regret {regret:.4g} breaks {relation} {self.limit:.4g}"
        return None
