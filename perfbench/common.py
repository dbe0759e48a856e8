"""Shared helpers: order statistics, host context, expected tables.

Nothing here imports ``repro``; the workloads import it after
``run.py`` has put the checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

# The tail is the highest percentile with at least this many samples
# beyond it; with fewer samples there is no tail to report.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest percentile of ``n`` samples that leaves at least
    ``TAIL_MIN_BEYOND`` samples strictly above its nearest rank, chosen
    from the usual reporting points; None when no point qualifies."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return q
    return None


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)`` of the latency tail, or None."""
    q = tail_percentile(len(values))
    if q is None:
        return None
    return q, percentile(values, q)


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def probe_table(size: int) -> dict:
    return {i: _Cell(i) for i in range(size)}


def probe_loop(table: dict) -> float:
    """Seconds for one pass of a fixed pure-Python loop of dict lookups
    and object attribute updates over ``table`` (the kind of
    interpreter work the simulator does).  It allocates no containers."""
    size = len(table)
    start = time.perf_counter()
    acc = 0
    for step in range(4):
        for key in range(step, size, 3):
            cell = table[key]
            cell.value = (cell.value * 31 + key) % 1_000_003
            acc += cell.value
    return time.perf_counter() - start


def probe_round(size: int = 50_000) -> float:
    """Seconds to build a fresh table of ``size`` cells and loop over it
    once.  The collector is paused for the round, so the program's heap
    size does not enter the reading."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe_loop(probe_table(size))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def host_probe() -> float:
    """Median of three probe rounds: a host-speed reading taken before
    and after each run, so drift of the machine can be told apart from
    a change in the program."""
    return statistics.median(probe_round() for _ in range(3))


class InRunProbe:
    """A thread that times one short probe loop every ``EVERY_S``
    seconds while the run sets up and runs its ops, so the samples
    cover the timed intervals themselves.  Their median is the host's
    speed over the run; ``speed_factor`` turns a measured time into the
    time at the reference speed ``REF_ROUND_S``.  A loop takes about
    0.2 ms, so the thread holds the interpreter for well under 1% of
    the run."""

    SIZE = 1_000
    EVERY_S = 0.05
    # Median of one loop on the reference host (2-core x86-64 VM,
    # CPython 3.11).  A fixed scale: any constant gives the same spreads.
    REF_ROUND_S = 0.0002

    def __init__(self) -> None:
        self.samples: list[float] = []
        # Built once: loops allocate no containers, so they leave the
        # program's heap and peak RSS as they were.
        self._table = probe_table(self.SIZE)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-probe")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def _sample(self) -> None:
        while not self._stop.wait(self.EVERY_S):
            self.samples.append(probe_loop(self._table))

    def speed_factor(self) -> float:
        """Reference loop time over this run's median loop time."""
        if not self.samples:
            raise RuntimeError("no probe loops were timed")
        return self.REF_ROUND_S / statistics.median(self.samples)

    def summary(self) -> dict:
        """Count, median and quartile spread of the samples."""
        if len(self.samples) < 2:
            return {"samples": len(self.samples),
                    "median_s": median(self.samples)}
        q1, q2, q3 = statistics.quantiles(self.samples, n=4)
        return {"samples": len(self.samples), "median_s": q2,
                "iqr_over_median": (q3 - q1) / q2}


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float | None:
    """Peak RSS (VmHWM) of another live process, in MiB, if readable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# prctl(2) option: orphaned descendants are reparented to this process.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Make this process the reaper of its orphaned descendants (Linux),
    so helpers that outlive the daemon which started them are reparented
    here and can be waited for, instead of being left to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _proc_stats():
    """``(pid, state, ppid, pgid)`` of every process in ``/proc``."""
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        yield int(entry.name), fields[0], int(fields[1]), int(fields[2])


def group_members(pgid: int) -> list[int]:
    """Pids of the processes of group ``pgid``, zombies included."""
    return [pid for pid, _, _, group in _proc_stats() if group == pgid]


def reap_exited_children() -> bool:
    """Reap every child of this process that has ended; False when this
    process has no children left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def stop_children(grace: float = 30.0) -> None:
    """Wait until every child of this process (adopted orphans included)
    has ended and been reaped.  Children still running after ``grace``
    seconds are killed, and so are the descendants that killing them
    hands to this process."""
    deadline = time.monotonic() + grace
    while reap_exited_children():
        if time.monotonic() > deadline:
            me = os.getpid()
            for pid, state, ppid, _ in _proc_stats():
                if ppid == me and state != "Z":
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        time.sleep(0.01)


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker if this process started
    one (an in-process daemon's pool does).  Left alone it outlives this
    process until it notices the exit.  Call it once nothing of
    multiprocessing is in use any more."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is None:
        return
    gc.collect()  # finalises dead semaphores, which unregister from it
    stop = getattr(tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / name) as fh:
        return json.load(fh)


def engine_context() -> dict:
    """Which issue engine the default path uses, and whether the native
    extension is importable."""
    from repro.arch.config import GpuConfig

    try:
        import repro._native  # noqa: F401
        native = True
    except ImportError:
        native = False
    return {
        "engine": GpuConfig().issue_engine,
        "native": native,
        "REPRO_ISSUE_ENGINE": os.environ.get("REPRO_ISSUE_ENGINE"),
    }
