"""The simulation daemon: one warm service in front of the run store.

Every ``repro`` invocation used to pay process startup, simulator
import, and a private cache load.  :class:`SimulationService` keeps one
asyncio front end (Unix-domain socket, optionally TCP) over one
journaled :class:`~repro.harness.runner.ExperimentRunner` and one
persistent ``ProcessPoolExecutor``, so the marginal cost of a
submission is a cache-key lookup.

Deduplication is layered, cheapest first:

1. **Batch** — a submission's own duplicate jobs collapse through
   :func:`~repro.harness.orchestrator.ordered_unique_jobs`, the same
   function the batch orchestrator applies across figure specs.
2. **Run store** — a content-addressed fingerprint hit in the shared
   journaled cache answers instantly with zero simulation cycles
   (including results journaled by concurrent *processes*, which are
   adopted via journal replay before declaring a miss).
3. **In-flight singleflight** — a submission whose key is already
   computing attaches to the running computation; both clients stream
   the same job id and receive the same record when it lands.

Execution rides PR 7's crash-safety machinery: each job runs in a pool
worker with periodic checkpoints keyed like the run cache, a worker
crash retries (resuming from the surviving checkpoint), a per-job
timeout — the client's override or the service default — fails the job
with kind ``timeout`` and recycles the pool, and every completed record
is write-ahead journaled before the periodic flush folds it into the
cache file.  Killing the daemon itself (SIGKILL) therefore loses
nothing: a restarted daemon adopts journaled records and resumes
interrupted jobs from their checkpoints.

Job lifecycle (queued → running → resumed → done/failed) is published
twice from one code path: as wire frames to subscribed clients, and as
``JOB_*`` :class:`~repro.observe.events.SimEvent`s on an observe
:class:`~repro.observe.bus.EventBus` (wall-clock milliseconds in the
``cycle`` field), which is what makes daemon-executed jobs exportable
to Perfetto via :func:`~repro.observe.export.job_trace_events`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.errors import (
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    ServiceProtocolError,
    ServiceQueueFullError,
    ServiceSpecError,
    ServiceUnavailableError,
)
from repro.harness.experiments import figure_spec
from repro.harness.orchestrator import (
    _simulate,
    job_error,
    ordered_unique_jobs,
)
from repro.harness.runner import ExperimentRunner
from repro.harness.spec import JobFailure, JobSpec, materialize_job
from repro.harness.telemetry import (
    MODE_CACHED,
    MODE_POOL,
    JobTiming,
    SessionTelemetry,
)
from repro.observe.bus import EventBus, EventLog
from repro.observe.events import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RESUMED,
    JOB_RUNNING,
    SimEvent,
)
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    error_frame,
    job_from_wire,
    record_to_wire,
)
from repro.workloads.suite import get_app

# Job status vocabulary (wire `status` field values).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TERMINAL = (DONE, FAILED)


@dataclass
class ServiceConfig:
    """Static knobs of one daemon instance."""

    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    cache_path: str = ".bench_cache.json"
    workers: int = 2
    seed: int = 2018
    target_ctas_per_sm: int = 24
    job_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    max_queue: int = 64
    checkpoint_dir: str | None = None
    checkpoint_interval: int = 0
    flush_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")


@dataclass
class JobState:
    """One daemon-side computation (possibly shared by many clients)."""

    job_id: int
    key: str
    job: JobSpec
    timeout: float | None
    status: str = QUEUED
    record: object = None
    failure: JobFailure | None = None
    timing: JobTiming | None = None
    resumed_from_cycle: int | None = None
    dedup: str | None = None       # how the *first* submitter got it
    attach_count: int = 0          # later submitters (singleflight hits)
    task: asyncio.Task | None = field(default=None, compare=False)


class SimulationService:
    """The daemon: submission intake, layered dedup, pool execution."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.runner = ExperimentRunner(
            target_ctas_per_sm=config.target_ctas_per_sm,
            seed=config.seed,
            cache_path=config.cache_path,
        )
        self.telemetry = SessionTelemetry(workers=config.workers)
        self.bus = EventBus()
        self.log = EventLog()
        self.bus.subscribe(self.log.append)
        self.stats = {
            "submitted": 0,
            "simulations": 0,
            "dedup_batch": 0,
            "dedup_store": 0,
            "dedup_inflight": 0,
            "timeouts": 0,
            "pool_restarts": 0,
        }
        self._pool: ProcessPoolExecutor | None = None
        self._pool_gen = 0
        self._pool_lock = asyncio.Lock()
        self._inflight: dict[str, JobState] = {}
        self._jobs: dict[int, JobState] = {}
        self._next_job_id = 1
        self._next_sub_id = 1
        self._subscribers: dict[int, asyncio.Queue] = {}
        self._servers: list[asyncio.base_events.Server] = []
        self._shutdown = asyncio.Event()
        self._draining = False
        self._closing = False
        self._flush_task: asyncio.Task | None = None
        self._started_at = time.monotonic()

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        """Bring up the worker pool and the periodic cache flusher
        (no sockets yet — tests and the fault campaign drive the
        service in-process through :meth:`submit`)."""
        self._pool = self._new_pool()
        if self.config.flush_interval > 0:
            self._flush_task = asyncio.create_task(self._flush_loop())

    async def start_servers(self) -> None:
        """Bind the Unix-domain socket and/or the TCP listener."""
        limit = 2 * (1 << 20)   # line buffer above MAX_FRAME_BYTES
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except FileNotFoundError:
                pass
            self._servers.append(await asyncio.start_unix_server(
                self._handle_conn, path=self.config.socket_path, limit=limit,
            ))
        if self.config.host is not None:
            self._servers.append(await asyncio.start_server(
                self._handle_conn, host=self.config.host,
                port=self.config.port, limit=limit,
            ))
        if not self._servers:
            raise ValueError("service has neither a socket path nor a host")

    def begin_drain(self) -> None:
        """Stop accepting submissions; finish what is in flight."""
        self._draining = True
        self._shutdown.set()

    async def run(self) -> int:
        """Serve until SIGTERM/SIGINT, drain, flush, exit 0."""
        await self.start()
        await self.start_servers()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.begin_drain)
        await self._shutdown.wait()
        await self.aclose()
        return 0

    async def aclose(self) -> None:
        """Drain in-flight jobs, flush the cache, release everything."""
        self._draining = True
        for server in self._servers:
            server.close()
        tasks = [s.task for s in self._inflight.values() if s.task]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Let follow-mode connection handlers forward the final events.
        await asyncio.sleep(0)
        self._closing = True
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
        self.runner.flush()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    async def _flush_loop(self) -> None:
        """Fold journaled records into the cache file periodically, so a
        long-lived daemon's results become visible to plain ``repro``
        batch runs sharing the cache path."""
        while True:
            await asyncio.sleep(self.config.flush_interval)
            self.runner.flush()

    # -- submission intake ----------------------------------------------------
    def _key_for(self, job: JobSpec) -> str:
        kernel, technique, _ = materialize_job(job)
        return self.runner.key_for(kernel, job.config, technique)

    def _store_lookup(self, key: str):
        record = self.runner.cached(key)
        if record is None:
            # Adopt results journaled by concurrent processes sharing
            # the cache path (the same replay runner.run performs).
            self.runner._replay_journal()
            record = self.runner.cached(key)
        return record

    def submit(
        self, jobs: list[JobSpec], timeout: float | None = None
    ) -> list[tuple[JobState, str | None]]:
        """Classify, dedup, and enqueue a submission.

        Returns one ``(state, dedup)`` pair per unique job, in
        submission order — ``dedup`` is how *this* submission got the
        state ("store", "inflight", or None for a fresh computation),
        which differs from ``state.dedup`` when attaching to another
        client's in-flight job.  Raises
        :class:`ServiceUnavailableError` while draining and
        :class:`ServiceQueueFullError` when the new computations would
        overflow ``max_queue`` (nothing is enqueued in that case —
        backpressure is all-or-nothing per submission).
        """
        if self._draining:
            raise ServiceUnavailableError(
                "service is draining toward shutdown; resubmit elsewhere"
            )
        if timeout is not None and timeout <= 0:
            raise ServiceSpecError("submission timeout must be positive")
        jobs = list(jobs)
        unique = ordered_unique_jobs(jobs)
        self.stats["dedup_batch"] += len(jobs) - len(unique)
        effective_timeout = (
            timeout if timeout is not None else self.config.job_timeout
        )

        # Classification pass (no side effects): what would each job do?
        plan: list[tuple[JobSpec, str, str | None, object]] = []
        fresh = 0
        for job in unique:
            key = self._key_for(job)
            if key in self._inflight:
                plan.append((job, key, "inflight", None))
                continue
            record = self._store_lookup(key)
            if record is not None:
                plan.append((job, key, "store", record))
            else:
                plan.append((job, key, None, None))
                fresh += 1
        active = sum(
            1 for s in self._inflight.values() if s.status not in TERMINAL
        )
        if active + fresh > self.config.max_queue:
            raise ServiceQueueFullError(
                f"queue full: {active} active + {fresh} new > "
                f"max_queue={self.config.max_queue}; retry later"
            )

        # Commit pass: attach, answer from store, or spawn.
        results: list[tuple[JobState, str | None]] = []
        for job, key, dedup, record in plan:
            if dedup == "inflight":
                state = self._inflight[key]
                state.attach_count += 1
                self.stats["dedup_inflight"] += 1
            elif dedup == "store":
                state = self._new_state(job, key, effective_timeout)
                state.dedup = "store"
                self.stats["dedup_store"] += 1
                self._emit(state, JOB_QUEUED, QUEUED)
                state.timing = JobTiming(
                    job.label, 0.0, MODE_CACHED, cycles=record.cycles
                )
                self.telemetry.timings.append(state.timing)
                self._finish(state, record=record)
            else:
                state = self._new_state(job, key, effective_timeout)
                self._inflight[key] = state
                self._emit(state, JOB_QUEUED, QUEUED)
                state.task = asyncio.get_running_loop().create_task(
                    self._execute(state)
                )
            self.stats["submitted"] += 1
            results.append((state, dedup))
        return results

    def _new_state(
        self, job: JobSpec, key: str, timeout: float | None
    ) -> JobState:
        state = JobState(
            job_id=self._next_job_id, key=key, job=job, timeout=timeout
        )
        self._next_job_id += 1
        self._jobs[state.job_id] = state
        return state

    # -- execution ------------------------------------------------------------
    def _job_checkpoint_dir(self, key: str) -> str | None:
        if self.config.checkpoint_dir is None \
                or self.config.checkpoint_interval <= 0:
            return None
        return os.path.join(self.config.checkpoint_dir, key[:16])

    async def _execute(self, state: JobState) -> None:
        try:
            await self._run_job(state)
        finally:
            self._inflight.pop(state.key, None)

    async def _run_job(self, state: JobState) -> None:
        state.status = RUNNING
        self._emit(state, JOB_RUNNING, RUNNING)
        attempt = 1
        while True:
            gen = self._pool_gen
            future = self._pool.submit(
                _simulate, state.job, self.runner.seed,
                self.runner.target_ctas_per_sm,
                self._job_checkpoint_dir(state.key),
                self.config.checkpoint_interval,
            )
            try:
                record, failure, seconds, resumed = await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout=state.timeout
                )
            except asyncio.TimeoutError:
                # The worker is past its budget and cannot be preempted
                # in place: declare the job timed out and recycle the
                # pool so the wedged process dies.
                self.stats["timeouts"] += 1
                await self._restart_pool(gen)
                self._finish(
                    state,
                    failure=(FAILURE_TIMEOUT,
                             f"job still running after "
                             f"{state.timeout:.1f}s timeout; "
                             "worker recycled"),
                    seconds=state.timeout or 0.0, attempts=attempt,
                    simulated=True,
                )
                return
            except BrokenExecutor as exc:
                await self._restart_pool(gen)
                if attempt <= self.config.max_retries:
                    attempt += 1
                    await asyncio.sleep(
                        self.config.retry_backoff * attempt
                    )
                    continue
                self._finish(
                    state,
                    failure=(FAILURE_WORKER_CRASH,
                             f"worker process died ({exc}); gave up "
                             f"after {attempt} attempts"),
                    seconds=0.0, attempts=attempt, simulated=True,
                )
                return
            except asyncio.CancelledError:
                if self._closing:
                    raise
                # Our (pending) pool future was collateral of a sibling
                # job's pool recycle — the work never started; redo it
                # on the fresh pool without consuming a retry.
                continue
            except Exception as exc:
                # Anything else the future raises (the worker entry
                # returns job errors as failures, so this is e.g. an
                # unpicklable result) still ends the job: a terminal
                # JOB_FAILED frame, never a follower waiting forever.
                self._finish(
                    state, failure=job_error(exc),
                    seconds=0.0, attempts=attempt, simulated=True,
                )
                return
            break
        self.stats["simulations"] += 1
        state.resumed_from_cycle = resumed
        if resumed is not None:
            self._emit(state, JOB_RESUMED, RUNNING, pc=resumed,
                       resumed_from_cycle=resumed)
        self._finish(state, record=record, failure=failure,
                     seconds=seconds, attempts=attempt, resumed=resumed,
                     simulated=True)

    async def _restart_pool(self, gen: int) -> None:
        """Terminate and rebuild the pool at most once per generation."""
        async with self._pool_lock:
            if gen != self._pool_gen:
                return
            self._pool_gen += 1
            self.stats["pool_restarts"] += 1
            old = self._pool
            for proc in getattr(old, "_processes", {}).values():
                proc.terminate()
            old.shutdown(wait=False, cancel_futures=True)
            self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        """A spawn-context pool: fork would hand every worker a copy of
        the daemon's listening socket, so a worker orphaned by a daemon
        SIGKILL would keep the dead listener's backlog accepting
        connects and black-hole clients of the restarted daemon.
        Spawned workers inherit no daemon fds."""
        return ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=multiprocessing.get_context("spawn"),
        )

    # -- completion + event fan-out -------------------------------------------
    def _finish(
        self,
        state: JobState,
        record=None,
        failure: tuple[str, str] | None = None,
        seconds: float = 0.0,
        attempts: int = 1,
        resumed: int | None = None,
        simulated: bool = False,
    ) -> None:
        if failure is not None:
            kind, message = failure
            state.failure = JobFailure(message, kind=kind, attempts=attempts)
            state.status = FAILED
        else:
            state.record = record
            state.status = DONE
            if simulated:
                self.runner.install(state.key, record)
        if simulated:
            state.timing = JobTiming(
                state.job.label, seconds, MODE_POOL,
                failed=failure is not None,
                failure_kind=failure[0] if failure else None,
                attempts=attempts,
                cycles=record.cycles if failure is None else None,
                resumed_from_cycle=resumed,
            )
            self.telemetry.timings.append(state.timing)
        frame_extra: dict = {
            "timing": state.timing.to_dict() if state.timing else None,
        }
        if state.status == DONE:
            frame_extra["record"] = record_to_wire(state.record)
            frame_extra["dedup"] = state.dedup
            frame_extra["resumed_from_cycle"] = state.resumed_from_cycle
            self._emit(state, JOB_DONE, DONE, **frame_extra)
        else:
            frame_extra["failure"] = {
                "kind": state.failure.kind,
                "message": state.failure.message,
                "attempts": state.failure.attempts,
            }
            self._emit(state, JOB_FAILED, FAILED, **frame_extra)

    def _now_ms(self) -> int:
        return int((time.monotonic() - self._started_at) * 1000)

    def _emit(
        self, state: JobState, kind: str, status: str,
        pc: int = -1, **frame_extra,
    ) -> None:
        """One code path feeding both outputs: the observe bus (Perfetto
        export path) and every subscribed client's frame queue."""
        detail = state.job.label
        if kind == JOB_DONE and state.timing is not None:
            detail = f"{state.job.label} [{state.timing.mode}]"
        elif kind == JOB_FAILED and state.failure is not None:
            detail = f"{state.job.label} [{state.failure.kind}]"
        self.bus.emit(SimEvent(
            cycle=self._now_ms(), kind=kind, warp_id=-1, pc=pc,
            detail=detail, value=state.job_id,
        ))
        frame = {
            "event": "job",
            "job_id": state.job_id,
            "key": state.key,
            "label": state.job.label,
            "status": status,
        }
        frame.update(frame_extra)
        for queue in self._subscribers.values():
            queue.put_nowait(frame)

    # -- subscriptions ---------------------------------------------------------
    def _add_subscriber(self) -> tuple[int, asyncio.Queue]:
        sub_id = self._next_sub_id
        self._next_sub_id += 1
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers[sub_id] = queue
        return sub_id, queue

    def _remove_subscriber(self, sub_id: int) -> None:
        self._subscribers.pop(sub_id, None)

    # -- wire dispatch ---------------------------------------------------------
    def _resolve_submission(self, frame: dict) -> list[JobSpec]:
        """Jobs from a submit frame: named experiment or explicit list."""
        experiment = frame.get("experiment")
        if experiment is not None:
            if not isinstance(experiment, str):
                raise ServiceSpecError("'experiment' must be a string")
            apps = frame.get("apps")
            if apps is not None:
                if not isinstance(apps, list) or not all(
                    isinstance(a, str) for a in apps
                ):
                    raise ServiceSpecError("'apps' must be a string list")
                for app in apps:
                    try:
                        get_app(app)
                    except KeyError as exc:
                        raise ServiceSpecError(
                            str(exc.args[0] if exc.args else exc)
                        )
            try:
                spec = figure_spec(experiment, tuple(apps) if apps else None)
            except KeyError as exc:
                raise ServiceSpecError(
                    str(exc.args[0] if exc.args else exc)
                )
            return list(spec.jobs)
        jobs_payload = frame.get("jobs")
        if not isinstance(jobs_payload, list) or not jobs_payload:
            raise ServiceSpecError(
                "submit needs 'experiment' or a non-empty 'jobs' list"
            )
        return [job_from_wire(j) for j in jobs_payload]

    @staticmethod
    def _entry(state: JobState, dedup: str | None) -> dict:
        entry = {
            "job_id": state.job_id,
            "key": state.key,
            "label": state.job.label,
            "status": state.status,
            "dedup": dedup,
        }
        if state.status == DONE:
            entry["record"] = record_to_wire(state.record)
            entry["timing"] = (
                state.timing.to_dict() if state.timing else None
            )
        elif state.status == FAILED:
            entry["failure"] = {
                "kind": state.failure.kind,
                "message": state.failure.message,
                "attempts": state.failure.attempts,
            }
        return entry

    async def _handle_conn(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break   # oversized line or peer reset: drop the conn
                if not line:
                    break
                try:
                    frame = decode_frame(line.rstrip(b"\n"))
                    await self._dispatch(frame, writer)
                except Exception as exc:   # typed errors → error frames
                    writer.write(encode_frame(error_frame(exc)))
                    await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, frame: dict, writer) -> None:
        op = frame.get("op")
        if op == "ping":
            writer.write(encode_frame({"ok": True, "server": "repro",
                                       "uptime_ms": self._now_ms()}))
            await writer.drain()
        elif op == "status":
            writer.write(encode_frame(self._status_frame()))
            await writer.drain()
        elif op == "trace":
            from repro.observe.export import job_trace_events

            writer.write(encode_frame({
                "ok": True,
                "trace": {"traceEvents": job_trace_events(self.log),
                          "displayTimeUnit": "ms"},
            }))
            await writer.drain()
        elif op == "submit":
            await self._op_submit(frame, writer)
        else:
            raise ServiceProtocolError(f"unknown operation {op!r}")

    def _status_frame(self) -> dict:
        return {
            "ok": True,
            "draining": self._draining,
            "uptime_ms": self._now_ms(),
            "queue_depth": len(self._inflight),
            "max_queue": self.config.max_queue,
            "workers": self.config.workers,
            "stats": dict(self.stats),
            "jobs": [
                {
                    "job_id": s.job_id,
                    "label": s.job.label,
                    "status": s.status,
                    "dedup": s.dedup,
                    "attached": s.attach_count,
                }
                for s in self._jobs.values()
            ],
            "telemetry": self.telemetry.to_dict(),
        }

    async def _op_submit(self, frame: dict, writer) -> None:
        jobs = self._resolve_submission(frame)
        timeout = frame.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise ServiceSpecError("'timeout' must be a number of seconds")
        follow = bool(frame.get("follow", True))
        sub_id, queue = (None, None)
        if follow:
            # Subscribe *before* submitting: store-hit events emitted
            # synchronously inside submit() land in this queue, so the
            # client sees a complete queued→done story for every job.
            sub_id, queue = self._add_subscriber()
        try:
            results = self.submit(jobs, timeout)
        except Exception:
            if sub_id is not None:
                self._remove_subscriber(sub_id)
            raise
        entries = [self._entry(s, dedup) for s, dedup in results]
        writer.write(encode_frame({"ok": True, "jobs": entries}))
        await writer.drain()
        if not follow:
            return
        wanted = {s.job_id for s, _ in results}
        pending = {s.job_id for s, _ in results if s.status not in TERMINAL}
        # Jobs that finished during submit() streamed their terminal
        # frames into the queue already; forward everything relevant
        # until every followed job is terminal.
        try:
            while pending:
                event = await queue.get()
                if event.get("job_id") not in wanted:
                    continue
                writer.write(encode_frame(event))
                await writer.drain()
                if event.get("status") in TERMINAL:
                    pending.discard(event["job_id"])
            writer.write(encode_frame({"event": "batch", "status": "done"}))
            await writer.drain()
        finally:
            self._remove_subscriber(sub_id)


async def serve(config: ServiceConfig) -> int:
    """Run one daemon to completion (the ``repro serve`` entry point)."""
    service = SimulationService(config)
    return await service.run()
