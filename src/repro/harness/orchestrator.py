"""Experiment orchestration: dedup, one job executor, cache merge.

The orchestrator sits between declarative :class:`ExperimentSpec`s and
the :class:`ExperimentRunner`:

1. **Deduplicate.**  The figure suite re-requests many jobs (every
   figure needs its apps' baselines); the union of all specs' jobs is
   collected once, in first-declared order.
2. **Execute.**  Jobs missing from the runner's store go to a
   :class:`JobExecutor`: in-process when ``workers=1``, otherwise on
   its process pool.  Each (kernel, config, technique) run is
   independent and CPU-bound, so the suite's wall clock scales with the
   worker count; results are bit-identical to serial execution because
   a worker rebuilds the exact same (kernel, technique, seed) triple
   and runs the same deterministic simulator.
3. **Merge.**  Worker records are installed into the runner's memo
   under the same content-hash keys ``runner.run`` would use; each is
   appended to a file-backed store as it is installed.

:class:`JobExecutor` is the one execution policy behind both front
ends: this batch orchestrator (one executor and pool per ``run_jobs``
call) and the ``repro serve`` daemon (one executor, and so one warm
pool, across all submissions).

* **Job errors.**  A :class:`SimulationError` (deadlock, cycle limit,
  invariant violation, placement) reproduces bit-for-bit on a re-run,
  so it is *never* retried; it and every other exception a job raises
  are classified by :func:`~repro.harness.spec.classify_failure` into
  a typed :class:`JobFailure`.
* **Worker deaths** (OOM kill, SIGKILL, hard fault) are transient.  A
  broken pool poisons every job running on it without saying which one
  killed it, so each poisoned job is charged one attempt and dispatched
  again to a fresh pool after ``retry_backoff * 2**(attempt-1)``
  seconds, up to ``max_retries`` extra attempts.  The new attempt
  recomputes the job from cycle 0: the simulator is deterministic, so
  the retried record is bit-identical to an undisturbed run.  Pool
  workers exit when their parent process dies (see
  :func:`_exit_with_parent`), so a killed orchestrator or daemon
  leaves no simulation running.
* **Timeouts.**  Each job has its own wall-clock budget: a per-job
  override (``run_jobs(..., timeouts=...)``, the path a service
  client's per-submit timeout rides) or the front end's default.  The
  budget starts when the job is dispatched to a worker.  An overdue job
  fails with kind ``timeout`` at once and is not retried: a hang long
  enough to trip the budget would cost another full budget to
  re-confirm.  Its worker cannot be preempted in place, so its pool is
  *retired*: new dispatches go to a fresh pool, and the retired pool's
  workers are terminated only once no other job still runs on it.
  Siblings finish uncharged.
* **Operator interrupts** (SIGINT / Ctrl-C): the workers are killed,
  everything already computed is kept (already on disk for a
  file-backed store) along with partial telemetry,
  and a typed :class:`repro.errors.InterruptedRun` carrying the
  completed/total counts replaces the raw traceback.

Per-job wall time, attempts, cache hits/misses, failure kinds, and
worker utilization are recorded in a :class:`SessionTelemetry`
(``repro bench`` prints it).
"""

from __future__ import annotations

import asyncio
import multiprocessing.connection
import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Iterable, Mapping, Sequence

from repro.errors import FAILURE_TIMEOUT, FAILURE_WORKER_CRASH, InterruptedRun
from repro.harness.runner import ExperimentRunner
from repro.harness.spec import (
    ExperimentSpec,
    JobFailure,
    JobResults,
    JobSpec,
    classify_failure,
    materialize_job,
    ordered_unique_jobs,
)
from repro.harness.telemetry import (
    MODE_CACHED,
    MODE_INLINE,
    MODE_POOL,
    JobTiming,
    SessionTelemetry,
)


def _simulate(job: JobSpec, seed: int, target_ctas_per_sm: int):
    """Worker-process entry point: run one job from cycle 0.

    Builds a throwaway cache-less runner so the grid sizing, seeding,
    and record normalization are exactly the serial path's; returns
    ``(record | None, (kind, message) | None, seconds, loop)``, where
    ``loop`` is the issue loop the job's SMs ran (None when it failed).
    Failures are returned (not raised) so the parent can distinguish a
    job error from the worker process itself dying, and so one failing
    job never takes its batch's flush and telemetry with it.
    """
    start = time.perf_counter()
    runner = ExperimentRunner(
        target_ctas_per_sm=target_ctas_per_sm, seed=seed
    )
    loop = None
    try:
        kernel, technique, _ = materialize_job(job)
        record, loop = runner.simulate(kernel, job.config, technique)
        failure = None
    except Exception as exc:
        record, failure = None, classify_failure(exc)
    return record, failure, time.perf_counter() - start, loop


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit as soon as the parent process dies.

    A spawned worker of a SIGKILLed parent is re-parented and would
    otherwise simulate on to the end of its job.  A daemon thread waits
    on the parent's sentinel, which becomes ready when the parent
    exits, and then ends the worker at once.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


def _terminate(pool: ProcessPoolExecutor) -> None:
    """Kill and reap a pool's workers (a joining shutdown would wait on
    a wedged one forever), then shut the pool down."""
    processes = list((pool._processes or {}).values())
    for process in processes:
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join()


class JobExecutor:
    """Runs jobs under the one dispatch, retry and timeout policy.

    :meth:`run_inline` simulates in the calling process; :meth:`run`
    applies the policy of the module docstring on a spawn-context pool
    (spawned workers inherit none of the parent's file descriptors,
    such as the daemon's listening socket).  At most ``workers`` jobs
    are dispatched at once, so none waits inside the pool.  Both install
    a record into the runner's store, append the job's timing to
    ``telemetry``, and return ``(record | JobFailure, JobTiming)``.

    ``stats`` counts ``simulations`` (worker results received),
    ``timeouts``, and ``pool_restarts`` (pools retired after a timeout
    or a worker death).
    """

    def __init__(
        self,
        runner: ExperimentRunner,
        telemetry: SessionTelemetry,
        workers: int = 1,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.runner = runner
        self.telemetry = telemetry
        self.workers = workers
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.stats = {"simulations": 0, "timeouts": 0, "pool_restarts": 0}
        self._pool: ProcessPoolExecutor | None = None
        # Jobs in flight on the current pool and on each retired pool
        # that still has some.
        self._load: dict[ProcessPoolExecutor, int] = {}
        self._slots: asyncio.Semaphore | None = None

    def _args(self, job: JobSpec) -> tuple:
        return job, self.runner.seed, self.runner.target_ctas_per_sm

    def run_inline(self, job: JobSpec, key: str) -> tuple[object, JobTiming]:
        """Simulate one job in this process (nothing can preempt it)."""
        return self._settle(job, key, _simulate(*self._args(job)),
                            MODE_INLINE)

    async def run(
        self, job: JobSpec, key: str, timeout: float | None = None
    ) -> tuple[object, JobTiming]:
        """Simulate one job on the pool: retry worker deaths, time out."""
        attempt = 1
        while True:
            try:
                result = await self._dispatch(job, key, timeout)
            except BrokenExecutor as exc:
                if attempt <= self.max_retries:
                    await asyncio.sleep(
                        self.retry_backoff * 2 ** (attempt - 1)
                    )
                    attempt += 1
                    continue
                result = None, (FAILURE_WORKER_CRASH,
                                f"worker process died ({exc}); gave up "
                                f"after {attempt} attempts"), 0.0, None
            except Exception as exc:
                # The worker entry returns job errors, so this is the
                # pool itself failing the call (an unpicklable result,
                # say): still this job's typed failure.
                result = None, classify_failure(exc), 0.0, None
            return self._settle(job, key, result, MODE_POOL, attempt)

    async def _dispatch(self, job: JobSpec, key: str, timeout: float | None):
        """One attempt on a free worker, in :func:`_simulate`'s result
        shape (a timeout is a failure); raises what the future raises."""
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.workers)
        async with self._slots:
            pool = self._pool or self._new_pool()
            future = asyncio.wrap_future(self._submit(pool, job, key))
            self._load[pool] += 1
            try:
                done, _ = await asyncio.wait((future,), timeout=timeout)
                if not done:
                    self.stats["timeouts"] += 1
                    self._retire(pool)
                    failure = (FAILURE_TIMEOUT,
                               f"job still running after {timeout:.1f}s "
                               "timeout; its pool was retired")
                    return None, failure, timeout, None
                if isinstance(future.exception(), BrokenExecutor):
                    self._retire(pool)
                result = future.result()
                self.stats["simulations"] += 1
                return result
            finally:
                if not future.done():
                    future.cancel()   # timed out or interrupted: unread
                self._release(pool)

    def _submit(self, pool: ProcessPoolExecutor, job: JobSpec,
                key: str) -> Future:
        """Hand one job to a pool worker (the dispatch seam)."""
        return pool.submit(_simulate, *self._args(job))

    def _new_pool(self) -> ProcessPoolExecutor:
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_exit_with_parent,
        )
        self._load[self._pool] = 0
        return self._pool

    def _retire(self, pool: ProcessPoolExecutor) -> None:
        """Send later dispatches to a fresh pool (once per pool)."""
        if pool is self._pool:
            self._pool = None
            self.stats["pool_restarts"] += 1

    def _release(self, pool: ProcessPoolExecutor) -> None:
        """One job left ``pool``; a retired pool dies once it is idle."""
        self._load[pool] -= 1
        if pool is not self._pool and not self._load[pool]:
            del self._load[pool]
            _terminate(pool)

    def close(self, kill: bool = False) -> None:
        """Shut every pool down; ``kill`` terminates busy workers too."""
        pools, self._pool, self._load = list(self._load), None, {}
        self._slots = None
        for pool in pools:
            if kill:
                _terminate(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)

    def _settle(
        self, job: JobSpec, key: str, result: tuple, mode: str,
        attempts: int = 1,
    ) -> tuple[object, JobTiming]:
        """Install or type one :func:`_simulate`-shaped result; time it."""
        record, failure, seconds, loop = result
        if failure is None:
            self.runner.install(key, record)
            outcome = record
        else:
            kind, message = failure
            outcome = JobFailure(message, kind=kind, attempts=attempts)
        timing = self.telemetry.record(
            job.label, seconds, mode,
            failed=failure is not None,
            failure_kind=failure[0] if failure else None,
            failure_message=failure[1] if failure else None,
            attempts=attempts,
            cycles=record.cycles if failure is None else None,
            loop=loop,
        )
        return outcome, timing


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
    ) -> None:
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        self.runner = runner
        self.workers = workers
        self.job_timeout = job_timeout
        self.telemetry = telemetry or SessionTelemetry(workers=workers)
        self.executor = JobExecutor(
            runner, self.telemetry, workers=workers,
            max_retries=max_retries, retry_backoff=retry_backoff,
        )

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
        timeouts = dict(timeouts or {})
        for job, budget in timeouts.items():
            if budget <= 0:
                raise ValueError(
                    f"per-job timeout must be positive: {job.label}"
                )
        ordered = ordered_unique_jobs(jobs)

        self.telemetry.start()
        outcomes: dict[JobSpec, object] = {}
        pending: list[tuple[JobSpec, str]] = []
        for job in ordered:
            key = self.runner.job_key(job)
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
            if self.workers == 1:
                for job, key in pending:
                    outcomes[job], _ = self.executor.run_inline(job, key)
            elif pending:
                asyncio.run(self._run_pool(pending, timeouts, outcomes))
        except KeyboardInterrupt as exc:
            # Ctrl-C mid-batch: keep everything already computed.  Each
            # finished record is on disk already (the runner appends it
            # when it is installed), and the telemetry covers the
            # partial session.
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
        return outcomes

    async def _run_pool(
        self,
        pending: Sequence[tuple[JobSpec, str]],
        timeouts: Mapping[JobSpec, float],
        outcomes: dict[JobSpec, object],
    ) -> None:
        """Run every pending job on the executor's pool, then close it."""
        async def settle(job: JobSpec, key: str) -> None:
            budget = timeouts.get(job, self.job_timeout)
            outcomes[job], _ = await self.executor.run(job, key, budget)

        loop = asyncio.get_running_loop()
        try:
            # A loop-level handler also wakes the loop while it waits on
            # workers, so Ctrl-C lands at once.
            loop.add_signal_handler(signal.SIGINT,
                                    asyncio.current_task().cancel)
        except RuntimeError:
            pass   # not the main thread: it never sees SIGINT
        finished = False
        try:
            await asyncio.gather(*(settle(job, key) for job, key in pending))
            finished = True
        except asyncio.CancelledError:
            raise KeyboardInterrupt from None
        finally:
            loop.remove_signal_handler(signal.SIGINT)
            self.executor.close(kill=not finished)
