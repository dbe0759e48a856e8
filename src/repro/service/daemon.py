"""The simulation daemon: one warm service in front of the run store.

Every ``repro`` invocation used to pay process startup, simulator
import, and a private cache load.  :class:`SimulationService` keeps one
asyncio front end (Unix-domain socket, optionally TCP) over one
file-backed :class:`~repro.harness.runner.ExperimentRunner` and one
:class:`~repro.harness.orchestrator.JobExecutor` whose warm pool lives
across submissions, so the marginal cost of a submission is a
cache-key lookup.

Deduplication is layered, cheapest first:

1. **Batch** — a submission's own duplicate jobs collapse through
   :func:`~repro.harness.orchestrator.ordered_unique_jobs`, the same
   function the batch orchestrator applies across figure specs.
2. **Run store** — a content-addressed fingerprint hit in the shared
   run store answers instantly with zero simulation cycles (including
   results stored by concurrent *processes*, whose appended lines are
   read before declaring a miss).
3. **In-flight singleflight** — a submission whose key is already
   computing attaches to the running computation; both clients stream
   the same job id and receive the same record when it lands.

Execution is the batch orchestrator's own :class:`JobExecutor`, so
both front ends share one retry and timeout policy: each job runs in a
pool worker, a worker crash retries the job from cycle 0, a
per-job timeout — the client's override or the service default — fails
the job with kind ``timeout`` and retires its pool without touching
sibling jobs, and every completed record is appended to the store
file and fsync'd when it is installed, visible at once to every
process sharing the path.  Killing the daemon itself (SIGKILL)
therefore loses no finished job: its pool workers exit with it, and a
restarted daemon reads the stored records and recomputes the jobs
that were interrupted.

Job lifecycle (queued → running → done/failed) is recorded twice
from one code path: as wire frames to subscribed clients, and as
``JOB_*`` :class:`~repro.observe.events.SimEvent`s appended to the
daemon's :class:`~repro.observe.bus.EventLog` (wall-clock milliseconds
in the ``cycle`` field), which is what makes daemon-executed jobs
exportable to Perfetto via :func:`~repro.observe.export.job_trace_events`.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import asdict, dataclass, field

from repro.errors import (
    ServiceProtocolError,
    ServiceQueueFullError,
    ServiceSpecError,
    ServiceUnavailableError,
)
from repro.harness.experiments import figure_spec
from repro.harness.orchestrator import JobExecutor, ordered_unique_jobs
from repro.harness.runner import ExperimentRunner
from repro.harness.spec import JobFailure, JobSpec
from repro.harness.telemetry import MODE_CACHED, JobTiming, SessionTelemetry
from repro.observe.bus import EventLog
from repro.observe.events import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
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
    dedup: str | None = None       # how the *first* submitter got it
    attach_count: int = 0          # later submitters (singleflight hits)
    task: asyncio.Task | None = field(default=None, compare=False)


class SimulationService:
    """The daemon: submission intake, layered dedup, executor dispatch."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.runner = ExperimentRunner(
            target_ctas_per_sm=config.target_ctas_per_sm,
            seed=config.seed,
            cache_path=config.cache_path,
        )
        self.telemetry = SessionTelemetry(workers=config.workers)
        self.log = EventLog()
        self.executor = JobExecutor(
            self.runner, self.telemetry, workers=config.workers,
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff,
        )
        # One counter dict: the executor counts simulations, timeouts
        # and pool_restarts; the intake counts the rest.
        self.stats = self.executor.stats
        self.stats.update(submitted=0, dedup_batch=0, dedup_store=0,
                          dedup_inflight=0)
        self._inflight: dict[str, JobState] = {}
        self._jobs: dict[int, JobState] = {}
        self._next_job_id = 1
        self._next_sub_id = 1
        self._subscribers: dict[int, asyncio.Queue] = {}
        self._servers: list[asyncio.base_events.Server] = []
        self._shutdown = asyncio.Event()
        self._draining = False
        self._started_at = time.monotonic()

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        """Start the service without sockets — tests, the fault campaign
        and the benchmark drive it in-process through :meth:`submit`.
        Nothing runs in the background: records are durable when
        installed, and the executor's pool starts with the first
        dispatch and stays warm until :meth:`aclose`."""

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
        """Drain in-flight jobs, compact the store if it needs it, release
        everything."""
        self._draining = True
        for server in self._servers:
            server.close()
        tasks = [s.task for s in self._inflight.values() if s.task]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Let follow-mode connection handlers forward the final events.
        await asyncio.sleep(0)
        self.runner.flush()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        self.executor.close()
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    # -- submission intake ----------------------------------------------------
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
            key = self.runner.job_key(job)
            if key in self._inflight:
                plan.append((job, key, "inflight", None))
                continue
            record = self.runner.cached(key)
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
                state.timing = self.telemetry.record(
                    job.label, 0.0, MODE_CACHED, cycles=record.cycles
                )
                self._finish(state, record)
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
    async def _execute(self, state: JobState) -> None:
        try:
            state.status = RUNNING
            self._emit(state, JOB_RUNNING, RUNNING)
            outcome, state.timing = await self.executor.run(
                state.job, state.key, state.timeout
            )
            self._finish(state, outcome)
        finally:
            self._inflight.pop(state.key, None)

    # -- completion + event fan-out -------------------------------------------
    def _finish(self, state: JobState, outcome) -> None:
        """Publish a terminal outcome: a record or a :class:`JobFailure`."""
        timing = state.timing.to_dict()
        if isinstance(outcome, JobFailure):
            state.failure, state.status = outcome, FAILED
            self._emit(state, JOB_FAILED, FAILED, timing=timing,
                       failure=asdict(outcome))
        else:
            state.record, state.status = outcome, DONE
            self._emit(state, JOB_DONE, DONE, timing=timing,
                       record=record_to_wire(outcome), dedup=state.dedup)

    def _now_ms(self) -> int:
        return int((time.monotonic() - self._started_at) * 1000)

    def _emit(
        self, state: JobState, kind: str, status: str, **frame_extra,
    ) -> None:
        """One code path feeding both outputs: the event log (Perfetto
        export path) and every subscribed client's frame queue."""
        detail = state.job.label
        if kind == JOB_DONE and state.timing is not None:
            detail = f"{state.job.label} [{state.timing.mode}]"
        elif kind == JOB_FAILED and state.failure is not None:
            detail = f"{state.job.label} [{state.failure.kind}]"
        self.log.append(SimEvent(
            cycle=self._now_ms(), kind=kind, detail=detail,
            value=state.job_id,
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
            entry["failure"] = asdict(state.failure)
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
