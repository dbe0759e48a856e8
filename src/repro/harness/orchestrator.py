"""Experiment orchestration: dedup, parallel dispatch, cache merge.

The orchestrator sits between declarative :class:`ExperimentSpec`s and
the :class:`ExperimentRunner`:

1. **Deduplicate.**  The figure suite re-requests many jobs (every
   figure needs its apps' baselines); the union of all specs' jobs is
   collected once, in first-declared order.
2. **Dispatch.**  Jobs missing from the runner's cache are simulated —
   in-process when ``workers=1``, otherwise fanned out to a
   ``ProcessPoolExecutor``.  Each (kernel, config, technique) run is
   independent and CPU-bound, so the suite's wall clock scales with the
   worker count; results are bit-identical to serial execution because
   a worker rebuilds the exact same (kernel, technique, seed) triple
   and runs the same deterministic simulator.
3. **Merge.**  Worker records are installed into the runner's memo
   under the same content-hash keys ``runner.run`` would use, then the
   cache is persisted once (atomic write) for the whole session.

Failure handling distinguishes three regimes:

* **Deterministic simulator errors** (deadlock, cycle limit, invariant
  violation, placement — any :class:`SimulationError`): re-running the
  same deterministic job reproduces them bit-for-bit, so they are
  *never* retried.  They surface as a typed :class:`JobFailure` whose
  ``kind`` comes from the exception taxonomy.
* **Worker crashes** (a pool process dies — OOM kill, preemption,
  hard fault): transient and environmental.  The broken pool poisons
  every unfinished future without attributing the crash, so all
  unfinished jobs are resubmitted to a fresh pool, with exponential
  backoff, up to ``max_retries`` extra attempts each.  With
  checkpointing on (``checkpoint_interval > 0``), a resubmitted job
  *resumes* from whatever checkpoints the dead worker flushed rather
  than restarting at cycle 0 — bit-identical either way, so retries
  and cold runs share one cache key.
* **Operator interrupts** (SIGINT / Ctrl-C): in-flight futures are
  cancelled, workers terminated, everything already computed is
  flushed to the cache along with partial telemetry, and a typed
  :class:`repro.errors.InterruptedRun` carrying the completed/total
  counts replaces the raw traceback.
* **Timeouts**: each job carries its own wall-clock deadline — a
  per-job override (``run_jobs(..., timeouts=...)``, the path a service
  client's per-submit timeout rides) or the session ``job_timeout``
  default.  An overdue job fails with kind ``timeout`` while on-time
  siblings keep running; if its worker is still wedged when everything
  else finishes, the pool is abandoned (not joined — a hung worker
  would block shutdown forever).  Not retried: a hang long enough to
  trip the watchdog would cost another full timeout to re-confirm.

Per-job wall time, attempts, cache hits/misses, failure kinds, and
worker utilization are recorded in a :class:`SessionTelemetry`
(``repro bench`` prints it).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Iterable, Mapping, Sequence

from repro.errors import (
    FAILURE_JOB_ERROR,
    FAILURE_RUNTIME,
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    InterruptedRun,
    SimulationError,
)
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    JobFailure,
    JobResults,
    JobSpec,
    materialize_job,
)
from repro.harness.telemetry import (
    MODE_CACHED,
    MODE_INLINE,
    MODE_POOL,
    SessionTelemetry,
)


def ordered_unique_jobs(jobs: Iterable[JobSpec]) -> tuple[JobSpec, ...]:
    """Deduplicate a job stream, keeping first-declared order.

    The batch-level dedup both the orchestrator and the service daemon
    apply before touching the run store: a figure suite (or a client
    submission spanning several figures) re-requests many jobs, and the
    union is computed once, in the order jobs first appeared.
    """
    seen: dict[JobSpec, None] = {}
    for job in jobs:
        seen.setdefault(job)
    return tuple(seen)


def job_error(exc: Exception) -> tuple[str, str]:
    """``(kind, message)`` for an exception a job raised that is neither
    a simulation error nor a worker death: the exception class, its
    text, and where it was raised, so the failure reads on its own."""
    message = f"{type(exc).__name__}: {exc}"
    frames = traceback.extract_tb(exc.__traceback__)
    if frames:
        origin = frames[-1]
        message += (
            f" (raised at {os.path.basename(origin.filename)}:"
            f"{origin.lineno} in {origin.name})"
        )
    return FAILURE_JOB_ERROR, message


def _simulate(
    job: JobSpec,
    seed: int,
    target_ctas_per_sm: int,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 0,
):
    """Worker-process entry point: run one job from scratch or resume it.

    Builds a throwaway cache-less runner so the grid sizing, seeding,
    and record normalization are exactly the serial path's; returns
    ``(record | None, (kind, message) | None, seconds, resumed_cycle)``.
    Failures are returned (not raised) so the parent can distinguish a
    deterministic job error from the worker process itself dying, and so
    one failing job never takes its batch's flush and telemetry with it.

    With ``checkpoint_dir`` set, the simulation writes periodic
    checkpoints there and — after a crashed or timed-out predecessor —
    resumes from any surviving ones; ``resumed_cycle`` reports the
    deepest such resume point (None for a cold start).  Resume is
    bit-identical to recomputation, so the record is cache-equivalent
    either way.
    """
    start = time.perf_counter()
    runner = ExperimentRunner(
        target_ctas_per_sm=target_ctas_per_sm, seed=seed
    )
    kernel, technique, priority = materialize_job(job)
    resume_report: dict = {}
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    try:
        record = runner.run(
            kernel, job.config, technique, scheduler_priority=priority,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
            resume_report=resume_report,
        )
        failure = None
    except SimulationError as exc:
        record, failure = None, (exc.kind, str(exc))
    except RuntimeError as exc:
        record, failure = None, (FAILURE_RUNTIME, str(exc))
    except Exception as exc:
        record, failure = None, job_error(exc)
    resumed = max(resume_report.get("resumed", {}).values(), default=None)
    return record, failure, time.perf_counter() - start, resumed


class Orchestrator:
    """Executes experiment specs against one shared runner."""

    def __init__(
        self,
        runner: ExperimentRunner,
        workers: int = 1,
        telemetry: SessionTelemetry | None = None,
        job_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        self.runner = runner
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        # Checkpointing turns the retry path into a *resume* path: a job
        # re-dispatched after a worker crash or timeout reloads whatever
        # checkpoints its predecessor flushed instead of restarting at
        # cycle 0.  An explicit dir also survives across sessions (kill
        # the whole process, rerun, resume); the auto-created tempdir
        # only covers within-session retries and is removed at the end.
        self.checkpoint_interval = checkpoint_interval
        self._owns_checkpoint_dir = False
        if checkpoint_dir is None and checkpoint_interval > 0:
            checkpoint_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
            self._owns_checkpoint_dir = True
        self.checkpoint_dir = checkpoint_dir
        self.telemetry = telemetry or SessionTelemetry(workers=workers)

    def _job_checkpoint_dir(self, key: str) -> str | None:
        """Per-job checkpoint subdirectory (keyed like the run cache)."""
        if self.checkpoint_dir is None or self.checkpoint_interval <= 0:
            return None
        return os.path.join(self.checkpoint_dir, key[:16])

    # -- public API -----------------------------------------------------------
    def run_specs(
        self, specs: Sequence[ExperimentSpec]
    ) -> dict[str, list]:
        """Run every spec's jobs (deduplicated) and build all rows."""
        outcomes = self.run_jobs(
            job for spec in specs for job in spec.jobs
        )
        return {
            spec.name: spec.build_rows(
                JobResults({job: outcomes[job] for job in spec.jobs})
            )
            for spec in specs
        }

    def run_jobs(
        self,
        jobs: Iterable[JobSpec],
        timeouts: Mapping[JobSpec, float] | None = None,
    ) -> dict[JobSpec, object]:
        """Execute a job set; returns JobSpec -> RunRecord | JobFailure.

        ``timeouts`` maps individual jobs to a wall-clock budget that
        *overrides* the session-wide ``job_timeout`` for that job only —
        the end-to-end propagation path a service client's per-submit
        timeout rides (spec → daemon → worker).  Timeouts apply to
        pool dispatch (``workers > 1``); the inline path cannot preempt
        a simulation it is itself running.
        """
        ordered = ordered_unique_jobs(jobs)

        self.telemetry.start()
        outcomes: dict[JobSpec, object] = {}
        pending: list[tuple[JobSpec, str]] = []
        for job in ordered:
            kernel, technique, _ = materialize_job(job)
            key = self.runner.key_for(kernel, job.config, technique)
            record = self.runner.cached(key)
            if record is not None:
                self.runner.cache_hits += 1
                outcomes[job] = record
                self.telemetry.record(job.label, 0.0, MODE_CACHED,
                                      cycles=record.cycles)
            else:
                self.runner.cache_misses += 1
                pending.append((job, key))

        # workers > 1 always uses the pool, even for one job: process
        # isolation is what contains a crashing or hanging worker.
        try:
            if self.workers == 1 or not pending:
                self._run_inline(pending, outcomes)
            else:
                self._run_pool(pending, outcomes, timeouts or {})
        except KeyboardInterrupt as exc:
            # Ctrl-C mid-batch: keep everything already computed.  The
            # journaled runner has each finished record on disk already;
            # the flush folds them into the main cache file, and the
            # telemetry covers the partial session.  Surviving worker
            # checkpoints stay in an operator-provided checkpoint_dir,
            # so rerunning the same batch resumes rather than restarts.
            self.runner.flush()
            self.telemetry.finish()
            raise InterruptedRun(
                f"interrupted after {len(outcomes)} of {len(ordered)} jobs",
                completed=len(outcomes),
                total=len(ordered),
                flushed=True,
            ) from exc

        self.runner.flush()
        self.telemetry.finish()
        if self._owns_checkpoint_dir and self.checkpoint_dir is not None:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        return outcomes

    # -- execution backends ---------------------------------------------------
    def _run_inline(
        self,
        pending: Sequence[tuple[JobSpec, str]],
        outcomes: dict[JobSpec, object],
    ) -> None:
        for job, key in pending:
            record, failure, seconds, resumed = _simulate(
                job, self.runner.seed, self.runner.target_ctas_per_sm,
                self._job_checkpoint_dir(key), self.checkpoint_interval,
            )
            self._finish_job(job, key, record, failure, seconds, MODE_INLINE,
                             outcomes, resumed_from_cycle=resumed)

    def _run_pool(
        self,
        pending: Sequence[tuple[JobSpec, str]],
        outcomes: dict[JobSpec, object],
        timeouts: Mapping[JobSpec, float],
    ) -> None:
        queue = [(job, key, 1) for job, key in pending]
        round_no = 0
        while queue:
            if round_no > 0:
                # Exponential backoff before re-dispatching crashed work.
                time.sleep(self.retry_backoff * (2 ** (round_no - 1)))
            queue = self._run_pool_round(queue, outcomes, timeouts)
            round_no += 1

    def _effective_timeout(
        self, job: JobSpec, timeouts: Mapping[JobSpec, float]
    ) -> float | None:
        """Per-job override first, session default second, else none."""
        timeout = timeouts.get(job, self.job_timeout)
        if timeout is not None and timeout <= 0:
            raise ValueError(f"per-job timeout must be positive: {job.label}")
        return timeout

    def _run_pool_round(
        self,
        batch: Sequence[tuple[JobSpec, str, int]],
        outcomes: dict[JobSpec, object],
        timeouts: Mapping[JobSpec, float],
    ) -> list[tuple[JobSpec, str, int]]:
        """One dispatch round on a fresh pool; returns jobs to retry.

        A fresh pool per round is mandatory, not a convenience: a crash
        breaks the executor permanently (every later submit raises),
        and a timed-out round leaves workers possibly wedged — the old
        pool is abandoned with ``shutdown(wait=False)`` rather than
        joined.

        Each job carries its *own* deadline (dispatch time + its
        effective timeout); an overdue job fails with kind ``timeout``
        while on-time siblings keep running.  The pool is only
        abandoned (workers terminated) when an expired job's worker is
        still wedged after everything else finished — an expired job's
        late result is discarded either way.
        """
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(batch)))
        start = time.monotonic()
        futures = {}
        deadlines: dict[object, float] = {}
        for job, key, attempt in batch:
            future = pool.submit(
                _simulate, job, self.runner.seed,
                self.runner.target_ctas_per_sm,
                self._job_checkpoint_dir(key), self.checkpoint_interval,
            )
            futures[future] = (job, key, attempt)
            timeout = self._effective_timeout(job, timeouts)
            if timeout is not None:
                deadlines[future] = start + timeout
        remaining = set(futures)
        expired: set = set()
        retry: list[tuple[JobSpec, str, int]] = []
        abandoned = False
        try:
            while remaining:
                next_deadline = min(
                    (deadlines[f] for f in remaining if f in deadlines),
                    default=None,
                )
                timeout = (
                    None if next_deadline is None
                    else max(0.0, next_deadline - time.monotonic())
                )
                done, remaining = wait(
                    remaining, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # A deadline elapsed with its job still in flight:
                    # declare exactly the overdue jobs timed out; their
                    # siblings keep their own clocks.
                    now = time.monotonic()
                    overdue = {
                        f for f in remaining
                        if f in deadlines and deadlines[f] <= now
                    }
                    for future in overdue:
                        job, key, attempt = futures[future]
                        budget = deadlines[future] - start
                        self._finish_job(
                            job, key, None,
                            (FAILURE_TIMEOUT,
                             f"job still running after {budget:.1f}s "
                             "timeout; worker abandoned"),
                            budget, MODE_POOL, outcomes,
                            attempts=attempt,
                        )
                    remaining -= overdue
                    expired |= overdue
                    continue
                for future in done:
                    job, key, attempt = futures[future]
                    try:
                        record, failure, seconds, resumed = future.result()
                    except BrokenExecutor as exc:
                        # The worker process died.  The pool cannot say
                        # *which* job killed it — every unfinished
                        # future is poisoned — so each poisoned job is
                        # retried as potentially innocent.
                        if attempt <= self.max_retries:
                            retry.append((job, key, attempt + 1))
                        else:
                            self._finish_job(
                                job, key, None,
                                (FAILURE_WORKER_CRASH,
                                 f"worker process died ({exc}); "
                                 f"gave up after {attempt} attempts"),
                                0.0, MODE_POOL, outcomes, attempts=attempt,
                            )
                        continue
                    self._finish_job(job, key, record, failure, seconds,
                                     MODE_POOL, outcomes, attempts=attempt,
                                     resumed_from_cycle=resumed)
            if any(not f.done() for f in expired):
                # An expired job's worker is still wedged after all
                # on-time work finished — abandon the pool rather than
                # join it (a hung worker would block shutdown forever).
                abandoned = True
        except KeyboardInterrupt:
            # Operator interrupt: cancel what never started, kill the
            # workers (their checkpoints, if any, survive on disk), and
            # let run_jobs() flush and summarize the partial session.
            for future in remaining:
                future.cancel()
            for proc in getattr(pool, "_processes", {}).values():
                proc.terminate()
            abandoned = True
            raise
        finally:
            if abandoned:
                # Every abandoned job was already declared timed out
                # (or interrupted), so the workers have no results
                # anyone will read — kill them.  Without this, the
                # executor's atexit hook would join the hung processes
                # and block interpreter shutdown as long as they stay
                # wedged.
                for proc in getattr(pool, "_processes", {}).values():
                    proc.terminate()
            pool.shutdown(wait=not abandoned, cancel_futures=True)
        return retry

    def _finish_job(
        self,
        job: JobSpec,
        key: str,
        record: RunRecord | None,
        failure: tuple[str, str] | None,
        seconds: float,
        mode: str,
        outcomes: dict[JobSpec, object],
        attempts: int = 1,
        resumed_from_cycle: int | None = None,
    ) -> None:
        if failure is not None:
            kind, message = failure
            outcomes[job] = JobFailure(message, kind=kind, attempts=attempts)
        else:
            self.runner.install(key, record)
            outcomes[job] = record
        self.telemetry.record(
            job.label, seconds, mode,
            failed=failure is not None,
            failure_kind=failure[0] if failure else None,
            attempts=attempts,
            cycles=record.cycles if failure is None and record else None,
            resumed_from_cycle=resumed_from_cycle,
        )
