"""Daemon crash-safety: SIGKILL the whole daemon mid-job, restart it on
the same cache/checkpoint directories, and the resubmitted job must
resume from the surviving checkpoint and finish bit-identical to an
uninterrupted run.  Also the graceful path: SIGTERM exits 0."""

from __future__ import annotations

import time

import pytest

from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.service import ServiceClient, record_from_wire

from tests.service.conftest import (
    kill_daemon,
    make_job,
    start_daemon,
    stop_daemon,
)

pytestmark = pytest.mark.faults


def _wait_for_checkpoint(ckpt_dir, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        # Only a completed (os.replace'd) checkpoint counts — matching
        # the in-flight "*.ckpt.json.tmp.<pid>" file would let the kill
        # land before any resumable snapshot exists.
        if ckpt_dir.exists() and any(
            p.is_file() and p.name.endswith(".ckpt.json")
            for p in ckpt_dir.rglob("*")
        ):
            return
        time.sleep(0.02)
    raise AssertionError(f"no checkpoint ever appeared under {ckpt_dir}")


class TestDaemonRestart:
    def test_sigkilled_daemon_resumes_bit_identically(self, tmp_path):
        job = make_job()

        # The uninterrupted reference, on the daemon's exact simulation
        # parameters (seed 2018, default CTA target) but its own cache.
        ref_runner = ExperimentRunner(
            target_ctas_per_sm=24, seed=2018,
            cache_path=str(tmp_path / "ref-cache.json"),
        )
        ref = Orchestrator(ref_runner, workers=1).run_jobs([job])[job]
        assert isinstance(ref, RunRecord)

        ckpt = tmp_path / "ckpts"
        serve_args = (
            "--checkpoint-dir", str(ckpt),
            "--checkpoint-interval", "4000",
            "--seed", "2018",
        )

        daemon, sock = start_daemon(tmp_path, serve_args=serve_args)
        try:
            with ServiceClient(socket_path=sock) as client:
                response = client.submit(jobs=[job], follow=False)
            assert not response.final     # in flight, not a cache answer
            # Let the job write at least one checkpoint, then murder
            # the daemon — whole process group, workers included, so
            # the job is genuinely interrupted.  No drain, no flush.
            _wait_for_checkpoint(ckpt)
        finally:
            kill_daemon(daemon)

        daemon2, sock2 = start_daemon(tmp_path, serve_args=serve_args)
        try:
            with ServiceClient(socket_path=sock2, io_timeout=300.0) as client:
                result = client.submit(jobs=[job], follow=True)
            assert result.ok
            final = next(iter(result.final.values()))
            assert final["status"] == "done"
            # Resumed from the dead daemon's checkpoint — not rerun
            # from cycle 0, not a run-store hit.
            assert final.get("dedup") is None
            assert final.get("resumed_from_cycle") is not None
            assert final["resumed_from_cycle"] > 0
            assert record_from_wire(final["record"]) == ref
        finally:
            # Graceful shutdown: SIGTERM drains and exits 0.
            stop_daemon(daemon2)
