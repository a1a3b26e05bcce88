"""Shared pieces of the benchmark: percentiles, host probe, processes, result.

Nothing here imports ``repro``, so the helpers can be tested without the
package on the path.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import signal
import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

#: a percentile above the median is reported only with at least this
#: many samples beyond its rank, so it is not just the run's slowest few.
MIN_TAIL = 10

#: prctl option that makes orphaned descendants re-parent to this process.
_PR_SET_CHILD_SUBREAPER = 36


class Percentile(NamedTuple):
    """A nearest-rank percentile with the sample count it was taken over."""

    value: float
    count: int


def percentile(values: Sequence[float], q: float) -> Optional[Percentile]:
    """Nearest-rank ``q``-th percentile of ``values``, or ``None``.

    The median is always reported for a non-empty sample. A higher
    percentile is omitted (``None``) when fewer than :data:`MIN_TAIL`
    samples lie beyond its rank.
    """
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q!r}")
    count = len(values)
    if count == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * count))
    if q > 50 and count - rank < MIN_TAIL:
        return None
    return Percentile(sorted(values)[rank - 1], count)


def host_calib_ms() -> float:
    """Milliseconds of a fixed pure-Python plus NumPy loop (best of 3).

    Taken before and after every run, so a host slowdown shows next to
    the figures it would otherwise pass for program noise.
    """
    import numpy as np

    data = np.random.default_rng(20130708).random(200_000)
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        np.sort(data)
        np.cumsum(data)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


# -- processes ---------------------------------------------------------------


def become_subreaper() -> bool:
    """Adopt orphaned descendants (the server's and pool's helpers).

    Linux only; elsewhere the runner still reaps its direct children.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids(parent: Optional[int] = None) -> List[int]:
    """Live (non-zombie) child process ids of ``parent`` (default: self)."""
    parent = os.getpid() if parent is None else parent
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # comm may hold spaces and parentheses: split after the last ')'.
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == parent and fields[0] != "Z":
            children.append(int(entry))
    return sorted(children)


def cmdline(pid: int) -> str:
    """The command line of ``pid`` ('' when it has gone)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def reap_zombies() -> None:
    """Collect every exited child without blocking."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_leftovers(grace: float = 10.0, timeout: float = 5.0) -> List[str]:
    """Reap children as they exit, then kill those still alive after ``grace``.

    Called after the orderly shutdown. Adopted helpers, such as the
    resource trackers that pool workers start, exit on their own once
    their parent has gone; anything still running after ``grace`` seconds
    is a process the run failed to stop. Returns its command lines.
    """
    deadline = time.monotonic() + grace
    while child_pids() and time.monotonic() < deadline:
        reap_zombies()
        time.sleep(0.02)
    reap_zombies()
    leftovers = child_pids()
    names = [f"{pid}: {cmdline(pid)}" for pid in leftovers]
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while child_pids() and time.monotonic() < deadline:
        reap_zombies()
        time.sleep(0.02)
    reap_zombies()
    return names


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if this process started one."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


# -- the result ----------------------------------------------------------------


class Checks:
    """Output checks of one run: operations attempted, failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.run_problems: List[str] = []

    def op(self, problems: Iterable[str], label: str) -> None:
        """Count one operation; it fails when ``problems`` is non-empty."""
        problems = list(problems)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)

    def run(self, problem: str) -> None:
        """Record a failed check of the run as a whole (not of one op)."""
        self.run_problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.run_problems and self.attempted > 0

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


def result_line(
    checks: Checks, values: Dict[str, float], units: Dict[str, str]
) -> str:
    """The single JSON result line; every metric in ``units`` is required."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": checks.correct,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )
