"""SimulationService behaviour: the three dedup layers, backpressure,
timeout propagation, observe-bus wiring, and concurrent socket clients.

All daemons here are in-process (``asyncio.run``); blocking clients run
in worker threads via ``asyncio.to_thread`` so the daemon's event loop
stays free to answer them.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import socket
import time

import pytest

from repro.errors import (
    ServiceQueueFullError,
    ServiceSpecError,
    ServiceUnavailableError,
)
from repro.harness.runner import RunRecord
from repro.harness.spec import TechniqueSpec
from repro.observe import JOB_DONE, JOB_QUEUED, JOB_RUNNING, job_trace_events
from repro.service import (
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceConfig,
    SimulationService,
    encode_frame,
    record_from_wire,
)
from repro.service.daemon import DONE, FAILED

from tests.service.conftest import make_job, sleeper_job


def svc_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        socket_path=str(tmp_path / "s.sock"),
        cache_path=str(tmp_path / "cache.json"),
        workers=1,
        seed=7,
        target_ctas_per_sm=2,
        retry_backoff=0.01,
        flush_interval=0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def drive(config: ServiceConfig, body, servers: bool = False):
    """Run ``body(service)`` against a started service, then close it."""
    async def main():
        service = SimulationService(config)
        await service.start()
        if servers:
            await service.start_servers()
        try:
            return await body(service)
        finally:
            await service.aclose()
    return asyncio.run(main())


class TestDedupLayers:
    def test_batch_then_store_dedup_reuses_one_simulation(self, tmp_path):
        job = make_job()

        async def body(service):
            # Batch layer: duplicate jobs in one submission collapse.
            results = service.submit([job, job])
            assert len(results) == 1
            state, dedup = results[0]
            assert dedup is None          # fresh computation
            await state.task
            assert isinstance(state.record, RunRecord)

            # Store layer: a post-completion resubmit is a pure cache
            # answer — zero new simulation work.
            (again, dedup2), = service.submit([job])
            assert dedup2 == "store"
            assert again.status == DONE
            assert again.record == state.record      # bit-identical
            assert service.stats["simulations"] == 1
            assert service.stats["dedup_batch"] == 1
            assert service.stats["dedup_store"] == 1
            return state.record

        record = drive(svc_config(tmp_path), body)
        assert record.cycles > 0

    def test_inflight_singleflight_shares_the_state(self, tmp_path):
        job = sleeper_job(0.5)

        async def body(service):
            (first, d1), = service.submit([job])
            (second, d2), = service.submit([job])
            assert second is first        # literally the same computation
            assert d1 is None and d2 == "inflight"
            assert first.attach_count == 1   # one later submitter attached
            await first.task
            assert isinstance(first.record, RunRecord)
            assert service.stats["simulations"] == 1
            assert service.stats["dedup_inflight"] == 1

        drive(svc_config(tmp_path), body)


class TestBackpressureAndDrain:
    def test_queue_full_is_all_or_nothing(self, tmp_path):
        async def body(service):
            occupier = sleeper_job(0.6)
            (running, _), = service.submit([occupier])
            # A new computation would exceed max_queue=1: typed, and
            # nothing from the rejected batch is enqueued.
            with pytest.raises(ServiceQueueFullError, match="queue full"):
                service.submit([make_job()])
            # Attaching to in-flight work adds no computation, so it
            # passes the same gate.
            (attached, dedup), = service.submit([occupier])
            assert attached is running and dedup == "inflight"
            await running.task
            assert service.stats["submitted"] == 2

        drive(svc_config(tmp_path, max_queue=1), body)

    def test_draining_service_rejects_submissions(self, tmp_path):
        async def body(service):
            service.begin_drain()
            with pytest.raises(ServiceUnavailableError, match="draining"):
                service.submit([make_job()])

        drive(svc_config(tmp_path), body)

    def test_nonpositive_submission_timeout_rejected(self, tmp_path):
        async def body(service):
            with pytest.raises(ServiceSpecError, match="timeout"):
                service.submit([make_job()], timeout=0.0)

        drive(svc_config(tmp_path), body)


class TestTimeoutPropagation:
    def test_submission_timeout_overrides_daemon_default(self, tmp_path):
        """A per-submission timeout must reach the worker wait even when
        the daemon's own default is far larger, fail typed, and leave
        the recycled pool healthy for the next job."""
        async def body(service):
            (hung, _), = service.submit([sleeper_job(8.0)], timeout=0.4)
            await hung.task
            assert hung.status == FAILED
            assert hung.failure.kind == "timeout"
            assert hung.timing.failed and hung.timing.failure_kind == "timeout"
            assert service.stats["timeouts"] == 1
            assert service.stats["pool_restarts"] >= 1

            (ok, _), = service.submit([make_job()])
            await ok.task
            assert isinstance(ok.record, RunRecord)

        drive(svc_config(tmp_path, job_timeout=60.0), body)


    def test_timeout_leaves_other_submissions_running_sibling_alone(
        self, tmp_path
    ):
        """The daemon twin of the orchestrator's per-job timeout test: a
        second submission's job running next to the one that times out
        finishes on its first attempt, and the retired pool's workers
        are terminated only after it."""
        async def body(service):
            (hung, _), = service.submit([sleeper_job(8.0)], timeout=0.5)
            (sibling, _), = service.submit([sleeper_job(2.0)])
            await asyncio.gather(hung.task, sibling.task)
            assert hung.status == FAILED
            assert hung.failure.kind == "timeout"
            assert sibling.status == DONE
            assert isinstance(sibling.record, RunRecord)
            assert sibling.timing.attempts == 1
            assert service.stats["timeouts"] == 1
            assert service.stats["pool_restarts"] == 1

        drive(svc_config(tmp_path, workers=2, max_retries=0), body)


class TestObserveWiring:
    def test_job_lifecycle_lands_on_the_bus(self, tmp_path):
        async def body(service):
            (state, _), = service.submit([make_job()])
            await state.task
            kinds = [e.kind for e in service.log.events]
            assert kinds == [JOB_QUEUED, JOB_RUNNING, JOB_DONE]
            done = service.log.of_kind(JOB_DONE)[0]
            assert done.value == state.job_id
            assert "[pool]" in done.detail

            trace = job_trace_events(service.log)
            phases = [t["ph"] for t in trace]
            assert phases.count("B") == phases.count("E") == 1
            assert any(t["ph"] == "i" for t in trace)   # queued instant

        drive(svc_config(tmp_path), body)


class TestWarmPath:
    def test_repeated_figure_submission_builds_no_kernel(
        self, tmp_path, generate_calls
    ):
        """Over a pre-filled store, only the first figure submission
        builds each app's kernel (to memoize its text); a repeat builds
        none and is answered entirely from the store."""
        from repro.harness.runner import ExperimentRunner
        from tests.harness.test_job_key import figure_jobs, fill_store

        config = svc_config(tmp_path)
        jobs = list(figure_jobs("fig7"))
        with ExperimentRunner(
            seed=config.seed, target_ctas_per_sm=config.target_ctas_per_sm,
            cache_path=config.cache_path,
        ) as store:
            fill_store(store, jobs)
        generate_calls.clear()

        async def body(service):
            counts = []
            for _ in range(2):
                results = service.submit(jobs)
                assert [dedup for _, dedup in results] == ["store"] * len(jobs)
                counts.append(len(generate_calls))
                generate_calls.clear()
            assert service.stats["simulations"] == 0
            return counts

        first, repeat = drive(config, body)
        assert first == len({job.app for job in jobs})
        assert repeat == 0


class TestConcurrentClients:
    def test_two_clients_one_simulation_identical_records(self, tmp_path):
        """The acceptance probe: two clients submit identical and
        overlapping specs concurrently; exactly one simulation runs per
        unique job and both clients get the full (identical) records."""
        jobs = [sleeper_job(1.5), make_job()]

        async def body(service):
            sock = service.config.socket_path

            def submit(delay: float):
                time.sleep(delay)
                with ServiceClient(socket_path=sock, io_timeout=120.0) as c:
                    return c.submit(jobs=jobs)

            # workers=1: the sleeper occupies the only pool slot, so
            # the second client is guaranteed to arrive mid-flight.
            first, second = await asyncio.gather(
                asyncio.to_thread(submit, 0.0),
                asyncio.to_thread(submit, 0.4),
            )
            assert first.ok and second.ok
            assert service.stats["simulations"] == len(jobs)
            assert service.stats["dedup_inflight"] == len(jobs)
            assert all(e.get("dedup") == "inflight" for e in second.jobs)

            by_label = lambda r: {
                e["label"]: record_from_wire(e["record"])
                for e in r.final.values()
            }
            assert by_label(first) == by_label(second)

        drive(svc_config(tmp_path), body, servers=True)


class TestJobErrors:
    def test_followed_compaction_error_fails_and_connection_survives(
        self, tmp_path
    ):
        """A job whose worker raises a non-simulation error (SAD at a
        forced |Es| = 4 raises CompactionError) must reach a terminal
        ``failed`` event for a following client, leave ``running``, and
        leave the connection able to answer ``status``."""
        bad = make_job(
            "SAD", TechniqueSpec.of("regmutex", extended_set_size=4)
        )

        async def body(service):
            def follow_then_status():
                with ServiceClient(socket_path=service.config.socket_path,
                                   io_timeout=60.0) as client:
                    return client.submit(jobs=[bad]), client.status()

            result, status = await asyncio.wait_for(
                asyncio.to_thread(follow_then_status), timeout=120.0
            )
            (final,) = result.final.values()
            assert final["status"] == FAILED
            assert final["failure"]["kind"] == "job-error"
            assert "CompactionError" in final["failure"]["message"]
            assert status["ok"] is True
            assert [j["status"] for j in status["jobs"]] == [FAILED]
            assert status["queue_depth"] == 0

        drive(svc_config(tmp_path), body, servers=True)

    def test_raising_pool_future_ends_the_job_failed(self, tmp_path):
        """Whatever a pool future raises besides a worker death (say, a
        result that cannot be pickled) ends the job with a terminal
        failure instead of leaving it running."""
        def raising_submit(pool, job, key):
            future = concurrent.futures.Future()
            future.set_exception(TypeError("cannot pickle result"))
            return future

        async def body(service):
            service.executor._submit = raising_submit
            ((state, _),) = service.submit([make_job()])
            await asyncio.wait_for(state.task, timeout=30.0)
            assert state.status == FAILED
            assert state.failure.kind == "job-error"
            assert state.failure.message.startswith(
                "TypeError: cannot pickle result"
            )
            assert service._inflight == {}

        drive(svc_config(tmp_path), body)


class TestWireRejections:
    def test_malformed_frames_get_typed_error_frames(self, tmp_path):
        """Garbage, version skew, unknown ops, and unknown apps each
        come back as a typed error frame — and the connection survives
        to serve a valid request afterwards."""
        probes = [
            (b"this is not json\n", "protocol"),
            (b'[1, 2, 3]\n', "protocol"),
            # encode_frame stamps the correct version, so skew must be
            # hand-rolled.
            (json.dumps({"v": PROTOCOL_VERSION + 7, "op": "ping"})
             .encode() + b"\n", "version-skew"),
            (encode_frame({"op": "no-such-op"}), "protocol"),
            (encode_frame({"op": "submit", "experiment": "figNaN"}),
             "bad-spec"),
        ]

        async def body(service):
            def run_probes():
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(10.0)
                sock.connect(service.config.socket_path)
                fh = sock.makefile("rwb")
                kinds = []
                for raw, _ in probes:
                    fh.write(raw)
                    fh.flush()
                    reply = json.loads(fh.readline())
                    assert reply["ok"] is False
                    kinds.append(reply["error"]["kind"])
                # Same connection still answers a healthy request.
                fh.write(encode_frame({"op": "ping"}))
                fh.flush()
                pong = json.loads(fh.readline())
                sock.close()
                return kinds, pong

            kinds, pong = await asyncio.to_thread(run_probes)
            assert kinds == [expected for _, expected in probes]
            assert pong["ok"] is True

        drive(svc_config(tmp_path), body, servers=True)
